"""Shared generators and independent oracles for the test suite.

Everything here is deliberately implemented from first principles (brute
force, enumeration, direct linear algebra) so that library code paths are
checked against genuinely independent computations.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from amplecones import (
    AbelianVarietyModel,
    AlbertForm,
    AlbertRealType,
    AlgebraMatrix,
    GaussianRational,
    HermitianMatrix,
    NotFundamental,
    NotInCone,
    PreconditionViolated,
    RationalQuaternion,
    ScalarKind,
    ShapeMismatch,
    SimpleFactor,
    cone_intersection,
    poly_member,
    primitive_vector,
)
from amplecones.errors import format_point
from amplecones.hermitian import _is_invertible

MATRIX_KINDS = (ScalarKind.REAL, ScalarKind.COMPLEX, ScalarKind.QUATERNION)


# --- random scalars -----------------------------------------------------------

def random_fraction(rng: random.Random, span: int = 6) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def random_scalar(rng: random.Random, kind: ScalarKind, span: int = 3):
    if kind is ScalarKind.REAL:
        return random_fraction(rng, span)
    if kind is ScalarKind.COMPLEX:
        return GaussianRational(random_fraction(rng, span), random_fraction(rng, span))
    return RationalQuaternion(
        random_fraction(rng, span),
        random_fraction(rng, span),
        random_fraction(rng, span),
        random_fraction(rng, span),
    )


def conj_scalar(value):
    return value if isinstance(value, Fraction) else value.conjugate()


# --- reference rational algebras -------------------------------------------------
#
# Elements of Q(i) and H(Q) as plain tuples of Fractions on the units
# 1, i (, j, k), multiplied through the table of unit products rather than a
# closed formula, and elements a + b*sqrt(d) of Q(sqrt(d)) as Fraction pairs
# multiplied by expanding powers of sqrt(d), so the library's
# integer-over-denominator arithmetic is checked against an independent
# route.  The norm is read off p * conj(p), never off a closed norm form.

_UNIT_PRODUCTS = {  # (r, s) -> (sign, t) with e_r e_s = sign * e_t
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def ref_embed(value, width: int) -> tuple:
    return (Fraction(value),) + (Fraction(0),) * (width - 1)


def ref_add(p, q) -> tuple:
    return tuple(a + b for a, b in zip(p, q))


def ref_sub(p, q) -> tuple:
    return tuple(a - b for a, b in zip(p, q))


def ref_mul(p, q) -> tuple:
    out = [Fraction(0)] * len(p)
    for r, a in enumerate(p):
        for s, b in enumerate(q):
            sign, t = _UNIT_PRODUCTS[r, s]
            out[t] += sign * a * b
    return tuple(out)


def ref_quad_mul(d: int):
    """The product of Q(sqrt(d)) on pairs (a, b) = a + b*sqrt(d)."""

    def mul(p, q) -> tuple:
        out = [Fraction(0), Fraction(0)]
        for r, a in enumerate(p):
            for s, b in enumerate(q):
                # sqrt(d)^(r + s) = d^((r + s) // 2) * sqrt(d)^((r + s) % 2)
                out[(r + s) % 2] += d ** ((r + s) // 2) * a * b
        return tuple(out)

    return mul


def ref_conj(p) -> tuple:
    return (p[0],) + tuple(-c for c in p[1:])


def ref_norm(p, mul=ref_mul) -> Fraction:
    return mul(p, ref_conj(p))[0]


def ref_inverse(p, mul=ref_mul) -> tuple:
    n = ref_norm(p, mul)
    return tuple(c / n for c in ref_conj(p))


def wide_fraction(rng: random.Random) -> Fraction:
    """Zero a quarter of the time; otherwise a numerator of up to 200 bits
    or a small one, over a denominator of mixed size, up to 2**67 + 1."""
    if rng.random() < 0.25:
        return Fraction(0)
    bound = 2**200 if rng.random() < 0.3 else 9
    den = rng.choice([1, 2, 3, 7, 2**67 + 1, rng.randint(1, 50)])
    return Fraction(rng.randint(-bound, bound), den)


def wide_scalar(rng: random.Random, kind: ScalarKind):
    if kind is ScalarKind.REAL:
        return wide_fraction(rng)
    cls = GaussianRational if kind is ScalarKind.COMPLEX else RationalQuaternion
    width = 2 if kind is ScalarKind.COMPLEX else 4
    return cls(*[wide_fraction(rng) for _ in range(width)])


def rebuild_scalar(value):
    """The public constructor's build of a scalar's value."""
    return type(value)(*_scalar_components(value))


def scalar_state(value) -> tuple:
    """The stored integers of a scalar: (numerator, denominator) of a
    Fraction, (_num, _den) of the other kinds."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    return value._num, value._den


# --- random matrices ----------------------------------------------------------

def random_algebra_matrix(
    rng: random.Random, kind: ScalarKind, size: int, span: int = 3
) -> AlgebraMatrix:
    return AlgebraMatrix(
        kind,
        [[random_scalar(rng, kind, span) for _ in range(size)] for _ in range(size)],
    )


def random_invertible_matrix(
    rng: random.Random, kind: ScalarKind, size: int, span: int = 3
) -> AlgebraMatrix:
    while True:
        m = random_algebra_matrix(rng, kind, size, span)
        if _is_invertible(m):
            return m


def random_pd_matrix(
    rng: random.Random, kind: ScalarKind, size: int, span: int = 3
) -> HermitianMatrix:
    m = random_invertible_matrix(rng, kind, size, span)
    prod = m.star() * m
    return HermitianMatrix(kind, prod.entries)


def random_hermitian_matrix(
    rng: random.Random, kind: ScalarKind, size: int, span: int = 4
) -> HermitianMatrix:
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = Fraction(rng.randint(-span, span))
        for j in range(i + 1, size):
            v = random_scalar(rng, kind, span)
            rows[i][j] = v
            rows[j][i] = conj_scalar(v)
    return HermitianMatrix(kind, rows)


def wide_algebra_matrix(rng: random.Random, kind: ScalarKind, size: int) -> AlgebraMatrix:
    return AlgebraMatrix(
        kind, [[wide_scalar(rng, kind) for _ in range(size)] for _ in range(size)]
    )


def wide_hermitian_matrix(rng: random.Random, kind: ScalarKind, size: int) -> HermitianMatrix:
    rows = [[None] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = wide_fraction(rng)
        for j in range(i + 1, size):
            rows[i][j] = wide_scalar(rng, kind)
            rows[j][i] = conj_scalar(rows[i][j])
    return HermitianMatrix(kind, rows)


# --- scalar-by-scalar matrix references -----------------------------------------
#
# Matrix products, the action and the trace pairing computed one scalar
# operation at a time on entry rows, every intermediate reduced by the scalar
# classes, as the reference for the library's integer-coefficient kernel.

def ref_matrix_product(a, b) -> tuple:
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def ref_star(a) -> tuple:
    return tuple(tuple(conj_scalar(v) for v in col) for col in zip(*a))


def ref_act(m, d) -> tuple:
    """The entry rows of M* D M."""
    return ref_matrix_product(ref_matrix_product(ref_star(m), d), m)


def _real_part(value) -> Fraction:
    return scalar_tuple(value)[0]


def ref_trace_pairing(x, y) -> Fraction:
    """Re Tr(x y*) of two entry-row matrices."""
    total = Fraction(0)
    for row, other in zip(x, y):
        for a, b in zip(row, other):
            total += _real_part(a * conj_scalar(b))
    return total


def ref_quadratic_value(d, v) -> Fraction:
    """The real part of v* D v."""
    total = None
    for i in range(len(v)):
        for j in range(len(v)):
            term = conj_scalar(v[i]) * (d[i][j] * v[j])
            total = term if total is None else total + term
    return _real_part(total)


def staged_hermitian(
    rng: random.Random, kind: ScalarKind, size: int, k: int, head: str
) -> HermitianMatrix:
    """A Hermitian matrix whose LDL* reaches step k with a chosen pivot.

    It is L B L* with L unit lower triangular and equal to the identity from
    row and column k on, so the Schur complement at step k is exactly the
    trailing block of B.  B is diagonal and positive before k; its trailing
    block is random Hermitian with its first row changed by ``head``:
    "negative" (a negative pivot), "zero-row" (a zero row, skipped) or
    "zero-pivot" (a zero pivot with a nonzero entry after it, when the
    block has room for one).
    """
    tail = random_hermitian_matrix(rng, kind, size - k)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(k):
        rows[i][i] = Fraction(rng.randint(1, 5))
    for i, row in enumerate(tail.entries, k):
        rows[i][k:] = row
    if head == "negative":
        rows[k][k] = Fraction(-rng.randint(1, 4))
    else:
        for i in range(k, size):
            rows[k][i] = rows[i][k] = 0
        if head == "zero-pivot" and k + 1 < size:
            entry = random_scalar(rng, kind) or 1
            rows[k][k + 1], rows[k + 1][k] = entry, conj_scalar(entry)
    zero, one = Fraction(0), Fraction(1)
    upper = [
        [
            one if i == j else (random_scalar(rng, kind) if i < min(j, k) else zero)
            for j in range(size)
        ]
        for i in range(size)
    ]
    # M* B M with M* = L unit lower triangular
    return HermitianMatrix(kind, ref_act(upper, rows))


# --- Fraction-tuple matrix references ---------------------------------------------
#
# LDL* and invertibility on matrices of Fraction coefficient tuples, with
# products from the unit table (ref_mul) and every division done in
# Fractions, as the reference for the library's fraction-free eliminations.

def scalar_tuple(value) -> tuple:
    return tuple(_scalar_components(value))


def matrix_tuples(matrix) -> list:
    return [[scalar_tuple(v) for v in row] for row in matrix.entries]


def ref_ldl(rows):
    """Exact LDL* of a Hermitian matrix of Fraction tuples, by the scalar
    algorithm: a zero pivot whose row is zero is skipped, and the first
    negative pivot, or zero pivot with a nonzero row, gives a vector
    v = L^{-*} w with v* D v < 0.

    Returns ``(lower, pivots, v)`` with ``v`` None exactly when the matrix
    is positive semidefinite; ``lower`` holds the multipliers found so far.
    """
    n, width = len(rows), len(rows[0][0])
    zero, one = ref_embed(0, width), ref_embed(1, width)
    a = [list(row) for row in rows]
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    pivots = []
    for k in range(n):
        pivot = a[k][k][0]
        bad = next((i for i in range(k + 1, n) if any(a[i][k])), None)
        if pivot == 0 and bad is None:
            pivots.append(pivot)  # a zero row: skipped
            continue
        if pivot > 0:
            pivots.append(pivot)
            for i in range(k + 1, n):
                m = tuple(c / pivot for c in a[i][k])
                lower[i][k] = m
                for j in range(k + 1, n):
                    a[i][j] = ref_sub(a[i][j], ref_mul(m, a[k][j]))
            continue
        v = [zero] * n
        if pivot < 0:
            v[k] = one
        else:
            # w = t e_k + e_bad with w* S w = S_bb - 2 t-terms = -1
            entry = a[bad][k]
            t = (a[bad][bad][0] + 1) / (2 * ref_norm(entry))
            v[k] = tuple(-t * c for c in ref_conj(entry))
            v[bad] = one
        for i in reversed(range(k)):
            total = zero
            for j in range(i + 1, n):
                total = ref_add(total, ref_mul(ref_conj(lower[j][i]), v[j]))
            v[i] = tuple(-c for c in total)
        return lower, pivots, v
    return lower, pivots, None


def ref_is_invertible(rows) -> bool:
    """Gaussian elimination with right division by the pivot (a_ic p^{-1}),
    over the skew field of Fraction tuples."""
    a = [list(row) for row in rows]
    n = len(a)
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if any(a[i][col])), None)
        if pivot_row is None:
            return False
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inverse = ref_inverse(a[col][col])
        for i in range(col + 1, n):
            factor = ref_mul(a[i][col], inverse)
            a[i] = [ref_sub(x, ref_mul(factor, y)) for x, y in zip(a[i], a[col])]
    return True


def rank_one_plus_shift(v, kind: ScalarKind, shift: Fraction) -> HermitianMatrix:
    """The positive-definite matrix v v* + shift * I (shift > 0)."""
    n = len(v)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = v[i] * conj_scalar(v[j])
            if i == j:
                entry = entry + shift
            row.append(entry)
        rows.append(row)
    return HermitianMatrix(kind, rows)


# --- brute-force number theory -------------------------------------------------

def pell_scan(d: int, bound: int) -> tuple[int, int, int] | None:
    """Smallest (a, b, norm) with a^2 - d b^2 = +-1, scanning b = 1..bound."""
    for b in range(1, bound + 1):
        for norm in (1, -1):
            a2 = d * b * b + norm
            if a2 < 0:
                continue
            a = math.isqrt(a2)
            if a * a == a2 and a > 0:
                return a, b, norm
    return None


def reference_fundamental_unit(d: int) -> tuple[int, int, int, int]:
    """(h, k, norm, L): the unit h + k sqrt(d) of Z[sqrt(d)] read off the
    convergent h/k of sqrt(d) one step before its whole period, of length
    L, closes, and its norm h^2 - d k^2 as computed.  The full-period walk,
    with its own recurrence of the complete quotients of sqrt(d)."""
    a0 = math.isqrt(d)
    period = []
    m, den, a = 0, 1, a0
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        period.append(a)
        if den == 1:
            break
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    for q in period[:-1]:
        h, h_prev = q * h + h_prev, h
        k, k_prev = q * k + k_prev, k
    return h, k, h * h - d * k * k, len(period)


# the large radicands of the benchmark's domains workload, whose squared
# units have 500 to 1700 bits
LARGE_RADICANDS = (100003, 100019, 100043, 250007, 1000003)


def unit_radicands(bound: int = 20000, family_bound: int = 300) -> list[int]:
    """Squarefree non-square radicands, in increasing order: every one up to
    ``bound``, the members of the short-period families a^2 + 1, a^2 - 1,
    a^2 + 2 and a^2 - 2 for a <= ``family_bound``, and LARGE_RADICANDS.
    Squarefree is read off a sieve of prime squares."""
    families = {
        a * a + c for a in range(1, family_bound + 1) for c in (1, -1, 2, -2)
    }
    candidates = set(range(2, bound + 1)) | families | set(LARGE_RADICANDS)
    top = max(candidates)
    squarefree = bytearray([1]) * (top + 1)
    for p in range(2, math.isqrt(top) + 1):
        squarefree[p * p :: p * p] = bytes(len(range(p * p, top + 1, p * p)))
    return sorted(
        d for d in candidates
        if d >= 2 and squarefree[d] and math.isqrt(d) ** 2 != d
    )


def square_scan(q: Fraction) -> bool:
    """Is q a rational square?  Linear scan, no isqrt."""
    n = q.numerator * q.denominator  # q = n / den^2
    s = 0
    while s * s < n:
        s += 1
    return s * s == n


# --- SL(2, Z) word oracle -------------------------------------------------------

_S = ((0, -1), (1, 0))
_T = ((1, 1), (0, 1))
_TINV = ((1, -1), (0, 1))


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _form_transform(form, u):
    g11, g12, g22 = form
    a, b = u[0]
    c, d = u[1]
    return (
        g11 * a * a + 2 * g12 * a * c + g22 * c * c,
        g11 * a * b + g12 * (a * d + b * c) + g22 * c * d,
        g11 * b * b + 2 * g12 * b * d + g22 * d * d,
    )


def form_lex_key(form):
    g11, g12, g22 = form
    sign = (g12 > 0) - (g12 < 0)
    return (g11, g22, abs(g12), -sign)


def sl2z_word_minimum(form, max_length: int = 6):
    """Lexicographic minimum of U^T G U over all words of length <= max_length
    in the generators S, T (inverses included)."""
    identity = ((1, 0), (0, 1))
    frontier = {identity}
    seen = {identity}
    best = form
    for _ in range(max_length):
        nxt = set()
        for u in frontier:
            for gen in (_S, _T, _TINV):
                w = _mat_mul(u, gen)
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
        frontier = nxt
        for u in frontier:
            candidate = _form_transform(form, u)
            if form_lex_key(candidate) < form_lex_key(best):
                best = candidate
    return best


def random_pd_form(rng: random.Random, span: int = 50):
    while True:
        g11 = rng.randint(1, span)
        g12 = rng.randint(-span, span)
        g22 = rng.randint(1, span)
        if g11 > 0 and g11 * g22 - g12 * g12 > 0:
            return (g11, g12, g22)


# --- 2D slope-interval oracle ---------------------------------------------------

def random_right_halfplane_cone_rays(rng: random.Random, span: int = 9):
    """Two non-proportional integer rays with positive first coordinate."""
    while True:
        u = (rng.randint(1, span), rng.randint(-span, span))
        v = (rng.randint(1, span), rng.randint(-span, span))
        if u[0] * v[1] - u[1] * v[0] != 0:
            return [u, v]


def slope_interval(rays) -> tuple[Fraction, Fraction]:
    slopes = sorted(Fraction(y, x) for x, y in rays)
    return slopes[0], slopes[-1]


def slope_interval_intersection(rays_a, rays_b):
    """Rays of the intersection of two right-halfplane sectors, or None."""
    lo = max(slope_interval(rays_a)[0], slope_interval(rays_b)[0])
    hi = min(slope_interval(rays_a)[1], slope_interval(rays_b)[1])
    if lo > hi:
        return None
    rays = {(s.denominator, s.numerator) for s in {lo, hi}}
    return sorted(rays)


# --- Caratheodory + Cramer cone-membership oracle ------------------------------

def _det(rows):
    """Determinant by Laplace expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def caratheodory_member(rays, v, dim: int) -> bool:
    """Is v a nonnegative combination of the integer rays?

    By Caratheodory's theorem it is iff some linearly independent subset of
    at most dim rays writes v with nonnegative coefficients.  Each subset is
    solved by Cramer's rule on its first nonsingular square minor (there is
    one iff the subset is independent, and then the solution is unique) and
    the solution is checked on every coordinate.  The coefficients
    det_j / det are kept as exact Fractions.
    """
    v = [Fraction(c) for c in v]
    if not any(v):
        return True
    for k in range(1, min(len(rays), dim) + 1):
        for subset in itertools.combinations(rays, k):
            for coords in itertools.combinations(range(dim), k):
                minor = [[r[i] for r in subset] for i in coords]
                det = _det(minor)
                if det == 0:
                    continue
                coeffs = []
                for j in range(k):
                    c = _det([row[:j] + [v[i]] + row[j + 1:] for row, i in zip(minor, coords)]) / det
                    if c < 0:
                        break
                    coeffs.append(c)
                else:
                    if all(
                        sum(c * r[i] for c, r in zip(coeffs, subset)) == v[i]
                        for i in range(dim)
                    ):
                        return True
                break
    return False


# --- reference generator check, translate location and domain verification --

def reference_generator_check(generator, a, b):
    """GroupAction2D's checks on the Fraction entries of the generator and
    on (a, b) as given, in its order: the message of the first check that
    fails, or (fwd, bwd, form) for an accepted generator, with fwd its
    primitive integer multiple, bwd the adjugate of fwd and form (a, b)
    scaled by den(a) * den(b)."""
    a, b = Fraction(a), Fraction(b)
    (g11, g12), (g21, g22) = [[Fraction(c) for c in row] for row in generator]
    det = g11 * g22 - g12 * g21
    if det == 0:
        return "generator is singular"
    # form preservation up to a positive scalar mu
    q11 = a * g11 * g11 - b * g21 * g21
    q12 = a * g11 * g12 - b * g21 * g22
    q22 = a * g12 * g12 - b * g22 * g22
    mu = q11 / a
    if mu <= 0 or q12 != 0 or q22 != -mu * b:
        return "generator does not preserve the quadratic cone"
    if g11 <= 0:
        return "generator swaps the two sheets of the cone"
    if det < 0:
        return "generator reverses orientation (det < 0)"
    f = primitive_vector((g11, g12, g21, g22))
    fwd = ((f[0], f[1]), (f[2], f[3]))
    bwd = ((f[3], -f[1]), (-f[2], f[0]))
    return fwd, bwd, (a.numerator * b.denominator, b.numerator * a.denominator)


def _reference_upper_ray(pi, action):
    """The ray of a two-ray pi that the action carries the other ray onto."""
    if len(pi.rays) != 2:
        return None
    u, v = pi.rays
    if action.ray_image(u, 1) == v:
        return v
    if action.ray_image(v, 1) == u:
        return u
    return None


def _on_ray(v, ray) -> bool:
    pivot = next(i for i, c in enumerate(ray) if c)
    if v[pivot] * ray[pivot] <= 0:
        return False
    return all(v[i] * ray[pivot] == ray[i] * v[pivot] for i in range(len(ray)))


def reference_translate_locate(p, pi, action, max_word: int = 24) -> int:
    """translate_locate by a linear scan: walk q = g^(-k) p from
    k = -max_word upward and test q against pi's facets with poly_member,
    leaving out the upper boundary ray of a cone{R, g(R)}."""
    p = (Fraction(p[0]), Fraction(p[1]))
    if not action.open_member(p):
        raise NotInCone(f"point {format_point(p)} is outside the open cone")
    if pi.dim != 2:
        raise ShapeMismatch("translate location works in the plane")
    upper = _reference_upper_ray(pi, action)
    q = action.ray_image(primitive_vector(p), max_word)
    for k in range(-max_word, max_word + 1):
        if poly_member(pi, q) and (upper is None or not _on_ray(q, upper)):
            return k
        q = action.ray_image(q, -1)
    raise NotFundamental(
        f"translates g^k pi with |k| <= {max_word} miss the point {format_point(p)}"
    )


def _fraction_json(f: Fraction):
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def simplest_slope(low: Fraction, high: Fraction) -> list:
    """The ray [q, p] of the simplest rational p/q strictly between low and
    high: the first one met descending the Stern-Brocot tree from 1/1.
    Runs of steps in one direction are taken at once, on the integers
    ln/ld = low and hn/hd = high, so the walk is the continued fraction
    of the interval."""
    if low < 0 < high:
        return [1, 0]
    if high <= 0:
        q, p = simplest_slope(-high, -low)
        return [q, -p]
    ln, ld = low.numerator, low.denominator
    hn, hd = high.numerator, high.denominator
    (lp, lq), (rp, rq) = (0, 1), (1, 0)  # the interval's bounds in the tree
    while True:
        p, q = lp + rp, lq + rq
        if p * ld <= ln * q:  # right while the mediant stays <= low
            k = (ln * lq - lp * ld) // (rp * ld - ln * rq)
            lp, lq = lp + k * rp, lq + k * rq
        elif p * hd >= hn * q:  # left while it stays >= high
            k = (rp * hd - hn * rq) // (hn * lq - lp * hd)
            rp, rq = rp + k * lp, rq + k * lq
        else:
            return [q, p]


def reference_verify(
    pi, action, samples: int, max_word: int, seed: int, locate=reference_translate_locate
) -> dict:
    """The JSON report of verify_fundamental_domain from the same seeded
    samples, each located by ``locate(direction, pi, action, max_word)``
    (the linear scan by default), and with disjointness decided by double
    description of pi and each translate g^k pi, whose witness is the
    simplest slope inside the overlap.  No exact gap test: covering is
    sampled only."""
    for ray in pi.rays:
        if not action.closed_member(ray):
            raise PreconditionViolated(
                f"generator {ray} of pi is outside the closed cone"
            )
    rng = random.Random(seed)
    A = action.a.numerator * action.b.denominator
    B = action.b.numerator * action.a.denominator
    points = []
    while len(points) < samples:
        n1, d1 = rng.randint(1, 60), rng.randint(1, 20)
        n2, d2 = rng.randint(-60, 60), rng.randint(1, 20)
        x, y = n1 * d2, n2 * d1
        if A * x * x > B * y * y:
            points.append((Fraction(n1, d1), Fraction(n2, d2), (x, y)))
    witnesses = []
    words_used = 0
    for x1, x2, direction in points:
        try:
            k = locate(direction, pi, action, max_word)
        except NotFundamental:
            witnesses.append(
                {"kind": "uncovered", "point": [_fraction_json(x1), _fraction_json(x2)]}
            )
            continue
        words_used = max(words_used, abs(k))
    covering_ok = not witnesses
    for k in [k for step in range(1, max_word + 1) for k in (step, -step)]:
        overlap = cone_intersection(pi, action.translate_cone(pi, k))
        if overlap is None or len(overlap.rays) < 2:
            continue
        slopes = [Fraction(r[1], r[0]) for r in overlap.rays]
        witnesses.append(
            {"kind": "overlap", "k": k, "point": simplest_slope(min(slopes), max(slopes))}
        )
    return {
        "covering_ok": covering_ok,
        "disjoint_ok": not any(w["kind"] == "overlap" for w in witnesses),
        "witnesses": witnesses,
        "words_used": words_used,
    }


# --- random abelian-variety models ----------------------------------------------

def random_model(rng: random.Random, max_factors: int = 4) -> AbelianVarietyModel:
    count = rng.randint(1, max_factors)
    factors = []
    for index in range(count):
        form = rng.choice(list(AlbertForm))
        factors.append(
            SimpleFactor(
                id=f"X{index}",
                albert=AlbertRealType(form=form, m=rng.randint(1, 3)),
                multiplicity=rng.randint(1, 3),
            )
        )
    return AbelianVarietyModel(factors=tuple(factors))


# --- exact rank over Q -----------------------------------------------------------

def _scalar_components(value):
    if isinstance(value, Fraction):
        return [value]
    if isinstance(value, GaussianRational):
        return [value.re, value.im]
    return [value.w, value.x, value.y, value.z]


def flatten_hermitian(matrix: HermitianMatrix) -> list[Fraction]:
    out = []
    for row in matrix.entries:
        for value in row:
            out.extend(_scalar_components(value))
    return out


def rational_rank(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_col = 0
    while rank < len(rows) and pivot_col < cols:
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][pivot_col] != 0), None
        )
        if pivot is None:
            pivot_col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][pivot_col]
        for r in range(rank + 1, len(rows)):
            if rows[r][pivot_col] != 0:
                factor = rows[r][pivot_col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        pivot_col += 1
    return rank
