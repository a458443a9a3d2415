"""Independent exact checks for the benchmark.

Nothing here calls into ``amplecones``: scalars are tuples of Fractions
(length 1, 2 or 4 for R, C, H), matrices are lists of rows, and every
verdict is recomputed from first principles.  Library results are only read
(attributes and tuples) and converted with :func:`components`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import combinations

KIND_WIDTH = {"R": 1, "C": 2, "H": 4}


# --- scalars as component tuples ---------------------------------------------

def components(x) -> tuple:
    """Components of a library scalar (Fraction, GaussianRational or
    RationalQuaternion) read through its public attributes."""
    if isinstance(x, (int, Fraction)):
        return (Fraction(x),)
    if hasattr(x, "w"):
        return (x.w, x.x, x.y, x.z)
    return (x.re, x.im)


def smul(a: tuple, b: tuple) -> tuple:
    if len(a) == 1:
        return (a[0] * b[0],)
    if len(a) == 2:
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def sconj(a: tuple) -> tuple:
    return (a[0],) + tuple(-c for c in a[1:])


def sadd(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def sreal(value, width: int) -> tuple:
    return (Fraction(value),) + (Fraction(0),) * (width - 1)


# --- matrices over R, C, H -----------------------------------------------------

def as_rows(matrix) -> list:
    """Entries of a library AlgebraMatrix/HermitianMatrix as component rows."""
    return [[components(v) for v in row] for row in matrix.entries]


def mat_mul(a, b):
    n, width = len(a), len(a[0][0])
    zero = sreal(0, width)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = sadd(acc, smul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_star(a):
    n = len(a)
    return [[sconj(a[j][i]) for j in range(n)] for i in range(n)]


def congruence(m, d):
    """M* D M."""
    return mat_mul(mat_mul(mat_star(m), d), m)


def trace_pairing(x, y) -> Fraction:
    """Re Tr(x y*) = sum over entries of the component dot product."""
    return sum(
        (sum(p * q for p, q in zip(xe, ye)) for xr, yr in zip(x, y) for xe, ye in zip(xr, yr)),
        Fraction(0),
    )


def quadratic(d, v) -> Fraction:
    """Real part of v* D v."""
    n, width = len(d), len(v[0])
    acc = sreal(0, width)
    for i in range(n):
        for j in range(n):
            acc = sadd(acc, smul(sconj(v[i]), smul(d[i][j], v[j])))
    return acc[0]


def _real_block(entry: tuple):
    """Real matrix of left multiplication by a scalar: 1x1, 2x2 or 4x4."""
    if len(entry) == 1:
        return [[entry[0]]]
    if len(entry) == 2:
        a, b = entry
        return [[a, -b], [b, a]]
    # q = c1 + c2 j with c1 = w + x i, c2 = y + z i maps to the complex
    # matrix [[c1, c2], [-conj(c2), conj(c1)]], realified blockwise
    w, x, y, z = entry
    c = [[(w, x), (y, z)], [(-y, z), (w, -x)]]
    out = [[None] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            blk = _real_block(c[i][j])
            for r in range(2):
                for s in range(2):
                    out[2 * i + r][2 * j + s] = blk[r][s]
    return out


def realify(h):
    """The real symmetric matrix of a Hermitian matrix over R, C or H; it is
    positive definite exactly when the original is."""
    n = len(h)
    if len(h[0][0]) == 1:
        return [[e[0] for e in row] for row in h]
    width = len(_real_block(h[0][0]))
    big = [[Fraction(0)] * (n * width) for _ in range(n * width)]
    for i in range(n):
        for j in range(n):
            blk = _real_block(h[i][j])
            for r in range(width):
                for s in range(width):
                    big[i * width + r][j * width + s] = blk[r][s]
    return big


def is_pd(h) -> bool:
    """Positive definiteness of a Hermitian matrix: every pivot of Gaussian
    elimination without exchanges on the realified matrix is positive."""
    a = [list(map(Fraction, row)) for row in realify(h)]
    n = len(a)
    for k in range(n):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                row_i, row_k = a[i], a[k]
                for j in range(k + 1, n):
                    row_i[j] -= f * row_k[j]
    return True


# --- number theory -------------------------------------------------------------

def is_squarefree(n: int) -> bool:
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return n >= 2


def primes_between(lo: int, hi: int) -> list[int]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(lo, hi + 1) if sieve[p]]


def pell_unit(d: int) -> tuple[int, int]:
    """Smallest a + b sqrt(d) > 1 with a^2 - d b^2 = +-1, by walking the
    continued fraction of sqrt(d) until a convergent solves the equation."""
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - d * k * k not in (1, -1):
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


@functools.cache
def squared_unit_generator(d: int):
    """The matrix of multiplication by the squared fundamental unit of
    Z[sqrt(d)] in the basis {1, sqrt(d)}."""
    a, b = pell_unit(d)
    p, q = a * a + d * b * b, 2 * a * b
    return ((p, d * q), (q, p))


def mat2_pow(g, k: int):
    """g^k for an integral 2x2 matrix of determinant 1 (k may be negative)."""
    if k < 0:
        (a, b), (c, d) = g
        g, k = ((d, -b), (-c, a)), -k
    out = ((1, 0), (0, 1))
    for _ in range(k):
        out = (
            (out[0][0] * g[0][0] + out[0][1] * g[1][0], out[0][0] * g[0][1] + out[0][1] * g[1][1]),
            (out[1][0] * g[0][0] + out[1][1] * g[1][0], out[1][0] * g[0][1] + out[1][1] * g[1][1]),
        )
    return out


def primitive(v) -> tuple:
    """Primitive integer vector on the ray through a nonzero rational vector."""
    fr = [Fraction(c) for c in v]
    den = 1
    for f in fr:
        den = den * f.denominator // math.gcd(den, f.denominator)
    ints = [int(f * den) for f in fr]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    return tuple(c // g for c in ints)


def mat2_apply(g, v) -> tuple:
    return primitive((g[0][0] * v[0] + g[0][1] * v[1], g[1][0] * v[0] + g[1][1] * v[1]))


def in_open_sector(p, u, v) -> bool:
    """Is p a strictly positive combination of the plane rays u and v?"""
    det = u[0] * v[1] - u[1] * v[0]
    alpha = p[0] * v[1] - p[1] * v[0]
    beta = u[0] * p[1] - u[1] * p[0]
    if det < 0:
        alpha, beta = -alpha, -beta
    return det != 0 and alpha > 0 and beta > 0


def in_closed_sector(p, u, v) -> bool:
    det = u[0] * v[1] - u[1] * v[0]
    alpha = p[0] * v[1] - p[1] * v[0]
    beta = u[0] * p[1] - u[1] * p[0]
    if det < 0:
        alpha, beta = -alpha, -beta
    return alpha >= 0 and beta >= 0


def is_reduced_form(g11: int, g12: int, g22: int) -> bool:
    """The canonical reduced domain with its boundary sign convention."""
    if not 0 <= 2 * abs(g12) <= g11 <= g22:
        return False
    if g12 < 0 and (2 * abs(g12) == g11 or g11 == g22):
        return False
    return True


def form_transform(form, u):
    """U^T G U for G = [[g11, g12], [g12, g22]] and U = [[a, b], [c, d]]."""
    g11, g12, g22 = form
    (a, b), (c, d) = u
    return (
        g11 * a * a + 2 * g12 * a * c + g22 * c * c,
        g11 * a * b + g12 * (a * d + b * c) + g22 * c * d,
        g11 * b * b + 2 * g12 * b * d + g22 * d * d,
    )


def squarefree_split(n: int) -> tuple[int, int]:
    """n = s^2 d with d squarefree, by trial division."""
    s, d, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            d *= p
        p += 1
    return s, d * n


# --- polyhedral cones in dimension <= 4 ------------------------------------------

def det(rows) -> Fraction:
    a = [list(map(Fraction, r)) for r in rows]
    n, sign, out = len(a), 1, Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return sign * out


def rank(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    r, cols = 0, len(rows[0]) if rows else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / rows[r][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def normal_of(vectors, dim: int):
    """A vector orthogonal to dim - 1 given vectors (generalized cross
    product by cofactors); zero when they are dependent."""
    return tuple(
        (-1) ** i * det([[v[j] for j in range(dim) if j != i] for v in vectors])
        for i in range(dim)
    )


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def facets(rays, dim: int) -> list:
    """Facet normals of a full-dimensional cone: hyperplanes through dim - 1
    independent generators with every generator on one side."""
    out = set()
    for subset in combinations(rays, dim - 1):
        n = normal_of(subset, dim)
        if not any(n):
            continue
        sides = [dot(n, r) for r in rays]
        if all(s >= 0 for s in sides):
            out.add(primitive(n))
        elif all(s <= 0 for s in sides):
            out.add(primitive(tuple(-c for c in n)))
    return sorted(out)


def caratheodory_member(rays, v, dim: int) -> bool:
    """Closed membership of v in the cone of a full-dimensional generator set:
    v lies in the cone of some basis drawn from the generators, and Cramer's
    rule decides each basis."""
    if not any(v):
        return True
    for basis in combinations(rays, dim):
        base = det([[b[i] for b in basis] for i in range(dim)])
        if base == 0:
            continue
        ok = True
        for j in range(dim):
            cols = [v if k == j else basis[k] for k in range(dim)]
            if det([[c[i] for c in cols] for i in range(dim)]) * base < 0:
                ok = False
                break
        if ok:
            return True
    return False


def intersection_rays(normals, dim: int) -> set:
    """Extreme rays of the pointed cone {x : <n, x> >= 0 for every normal}:
    the directions at which the tight normals have rank dim - 1."""
    out = set()
    for subset in combinations(normals, dim - 1):
        r = normal_of(subset, dim)
        if not any(r):
            continue
        for cand in (r, tuple(-c for c in r)):
            if all(dot(n, cand) >= 0 for n in normals):
                out.add(primitive(cand))
    return out


# --- abelian-variety models --------------------------------------------------------

FORM_RULES = {
    "RealSplit": ("R", 1),
    "ComplexSplit": ("C", 1),
    "QuaternionSplit": ("H", 1),
    "Mat2Real": ("R", 2),
    "Mat2Complex": ("C", 2),
}


def hermitian_dim(kind: str, size: int) -> int:
    return {"R": size * (size + 1) // 2, "C": size * size, "H": size * (2 * size - 1)}[kind]


def model_blocks(model: dict) -> list[dict]:
    blocks = []
    for f in model["factors"]:
        kind, scale = FORM_RULES[f["albert"]["form"]]
        blocks += [{"kind": kind, "size": scale * f["n"], "origin": f["id"]}] * f["albert"]["m"]
    return blocks


def model_expected(command: str, model: dict) -> dict:
    blocks = model_blocks(model)
    picard = sum(hermitian_dim(b["kind"], b["size"]) for b in blocks)
    if command == "decompose":
        return {"blocks": blocks}
    if command == "picard":
        return {"picard_number": picard}
    if command == "amplecone":
        return {
            "dimension": picard,
            "blocks": [
                {"type": "pd", "kind": b["kind"], "size": b["size"], "dim": hermitian_dim(b["kind"], b["size"])}
                for b in blocks
            ],
        }
    verdict = all(
        f["n"] == 1 and f["albert"]["m"] * hermitian_dim(*FORM_RULES[f["albert"]["form"]]) == 1
        for f in model["factors"]
    )
    return {"rational_polyhedral": verdict}


def json_subset(expected, actual) -> bool:
    """Every key of an expected object is present with an equal value;
    lists and scalars compare exactly."""
    if isinstance(expected, dict):
        return isinstance(actual, dict) and all(
            k in actual and json_subset(v, actual[k]) for k, v in expected.items()
        )
    if isinstance(expected, bool) or isinstance(actual, bool):
        return type(expected) is type(actual) and expected == actual
    return expected == actual
