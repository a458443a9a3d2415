"""Desk-scale reduction theory in rank 2.

Three pieces: Lagrange-Gauss reduction of positive-definite integral binary
forms to the classical reduced domain 0 <= 2|g12| <= g11 <= g22 (with a sign
convention on the boundary), location of points inside translates of a
candidate cone under an infinite-cyclic group action on a quadratic cone,
and a sampling verifier for the two fundamental-domain axioms: translates
cover the open cone, and distinct translates have disjoint interiors.

Both domain questions read one translate table, the candidate's extreme
rays pushed through g^k by integer matrix-vector products.  A row is built
on first read, so a question pays only for the translates it looks at.
The generator has det g > 0, so it moves every interior ray the same way
and both questions are signs of 2 x 2 integer cross products.  A
non-scalar g acts on the projectivized cone as a translation, so whether
pi and g^k pi overlap depends on |k| alone, and once it fails it fails
for every larger |k|: the disjointness scan stops at the first step with
no overlap.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    InvalidInput,
    NotFundamental,
    NotInCone,
    NotPositiveDefinite,
    PreconditionViolated,
    ShapeMismatch,
    _common_denominator,
    _coordinates,
    _integer,
    _integer_point,
    _rationals,
    _Record,
    format_point,
)
from .polyhedral import PolyhedralCone, _primitive, primitive_vector
from .polyhedral import cone_intersection  # noqa: F401 (bench/tracing.py patches it)


class IntegralForm(_Record):
    """Gram matrix [[g11, g12], [g12, g22]] of a positive-definite form."""

    __slots__ = ("g11", "g12", "g22")

    def __init__(self, g11: int, g12: int, g22: int):
        for name, value in zip(self.__slots__, (g11, g12, g22)):
            _integer(value, name)
        if g11 <= 0 or g11 * g22 - g12 * g12 <= 0:
            form = format_point((g11, g12, g22))
            raise NotPositiveDefinite(f"form {form} is not positive definite")
        self._set(g11=g11, g12=g12, g22=g22)

    def transformed(self, u: "UnimodularMatrix") -> "IntegralForm":
        """The equivalent form U^T G U."""
        a, b, c, d = u.a, u.b, u.c, u.d
        g11 = self.g11 * a * a + 2 * self.g12 * a * c + self.g22 * c * c
        g12 = (
            self.g11 * a * b
            + self.g12 * (a * d + b * c)
            + self.g22 * c * d
        )
        g22 = self.g11 * b * b + 2 * self.g12 * b * d + self.g22 * d * d
        return IntegralForm(g11, g12, g22)


class UnimodularMatrix(_Record):
    """[[a, b], [c, d]] with integer entries and determinant +1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        for name, value in zip(self.__slots__, (a, b, c, d)):
            _integer(value, name)
        if a * d - b * c != 1:
            raise InvalidInput("matrix is not in SL(2, Z)")
        self._set(a=a, b=b, c=c, d=d)

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def shear(cls, k: int) -> "UnimodularMatrix":
        """The power T^k of the standard shear T = [[1, 1], [0, 1]]."""
        return cls(1, k, 0, 1)

    @classmethod
    def swap(cls) -> "UnimodularMatrix":
        """The standard rotation S = [[0, -1], [1, 0]]."""
        return cls(0, -1, 1, 0)

    def __mul__(self, other):
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def rows(self) -> list[list[int]]:
        return [[self.a, self.b], [self.c, self.d]]


def minkowski_reduce(G: IntegralForm) -> tuple[IntegralForm, UnimodularMatrix]:
    """Canonical reduced representative of G under SL(2, Z), with the change
    of basis: returns (Gred, U) with Gred = U^T G U, 0 <= 2|g12| <= g11 <= g22,
    and g12 >= 0 whenever 2|g12| = g11 or g11 = g22.

    Alternately shears g12 into [-g11/2, g11/2] and swaps the diagonal when
    g11 > g22; g11 strictly decreases across swaps, so this terminates.
    """
    g = G
    u = UnimodularMatrix.identity()
    while True:
        # round(-g12/g11) with ties upward puts g12 + k*g11 in (-g11/2, g11/2],
        # so 2|g12| = g11 already lands on the g12 >= 0 side
        k = (g.g11 - 2 * g.g12) // (2 * g.g11)
        if k != 0:
            t = UnimodularMatrix.shear(k)
            g = g.transformed(t)
            u = u * t
        if g.g11 > g.g22:
            s = UnimodularMatrix.swap()
            g = g.transformed(s)
            u = u * s
            continue
        break
    if g.g12 < 0 and g.g11 == g.g22:
        s = UnimodularMatrix.swap()
        g = g.transformed(s)
        u = u * s
    return g, u


def _mat_vec(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


class GroupAction2D(_Record):
    """An infinite-cyclic group action on the quadratic cone
    {a*x1^2 - b*x2^2 > 0, x1 > 0}.

    The generator must preserve the form a*x1^2 - b*x2^2 up to a positive
    scalar, map the x1 > 0 sheet to itself and have det > 0, so that it
    keeps the orientation of rays.  Every check reads integers: the
    primitive integer multiple of the generator and the pair
    (A, B) = (a, b) * den(a) * den(b), positive multiples of g and of
    (a, b), which keep every verdict.  Those integers and the adjugate of
    the generator (a positive multiple of the inverse) are kept, which is
    all that ray computations need; an integer direction (x, y) with x > 0
    lies in the open cone exactly when A*x^2 > B*y^2.  Two actions are
    equal when their generators and (a, b) are.  Entries, (a, b) and
    points pass the coordinate check of ``polyhedral``.  The one action
    the library builds itself, by a squared unit, comes from the private
    ``_trusted`` with the same slots and no checks; every action a caller
    gives goes through this constructor.
    """

    __slots__ = ("generator", "a", "b", "_fwd", "_bwd", "_form")

    def __init__(self, generator, a, b) -> None:
        a, b = _rationals((a, b), "parameters a, b")
        if a <= 0 or b <= 0:
            raise InvalidInput("cone parameters a, b must be positive")
        rows = tuple(tuple(_rationals(_coordinates(row))) for row in _coordinates(generator))
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ShapeMismatch("expected a 2 x 2 matrix")
        (g11, g12, g21, g22), _ = _common_denominator(rows[0] + rows[1])
        det = g11 * g22 - g12 * g21
        if det == 0:
            raise InvalidInput("generator is singular")
        g11, g12, g21, g22 = _primitive((g11, g12, g21, g22))
        # form preservation up to a positive scalar mu = q11 / A
        A, B = a.numerator * b.denominator, b.numerator * a.denominator
        q11 = A * g11 * g11 - B * g21 * g21
        q12 = A * g11 * g12 - B * g21 * g22
        q22 = A * g12 * g12 - B * g22 * g22
        if q11 <= 0 or q12 != 0 or q22 * A != -q11 * B:
            raise InvalidInput("generator does not preserve the quadratic cone")
        if g11 <= 0:
            raise InvalidInput("generator swaps the two sheets of the cone")
        if det < 0:
            raise InvalidInput("generator reverses orientation (det < 0)")
        fwd = ((g11, g12), (g21, g22))
        bwd = ((g22, -g12), (-g21, g11))
        self._set(generator=rows, a=a, b=b, _fwd=fwd, _bwd=bwd, _form=(A, B))

    def open_member(self, v) -> bool:
        u, w = _integer_point(v, 2)
        A, B = self._form
        return u > 0 and A * u * u > B * w * w

    def closed_member(self, v) -> bool:
        u, w = _integer_point(v, 2)
        A, B = self._form
        return u >= 0 and A * u * u >= B * w * w

    def ray_image(self, ray, k: int = 1) -> tuple[int, ...]:
        """Primitive integer direction of g^k applied to a ray."""
        v = primitive_vector(ray)
        m = self._fwd if _integer(k, "k") >= 0 else self._bwd
        for _ in range(abs(k)):
            v = _mat_vec(m, v)
        return primitive_vector(v)

    def translate_cone(self, pi: PolyhedralCone, k: int) -> PolyhedralCone:
        return PolyhedralCone(2, [self.ray_image(r, k) for r in pi.rays])

    def generator_json(self) -> list[list]:
        return [
            [_fraction_json(c) for c in row] for row in self.generator
        ]


def _trusted(fwd, A: int, B: int) -> GroupAction2D:
    """A GroupAction2D from its primitive integer generator ``fwd`` and
    the positive integers (A, B), with no validation.

    Only the library's own squared units come through here
    (``abelian.real_mult_fundamental_domain``): fwd must pass every check
    of the public constructor, and the slots filled are the ones that
    ``GroupAction2D(fwd, A, B)`` stores.  The public constructor keeps
    full validation, for every action a caller gives.
    """
    (g11, g12), (g21, g22) = fwd
    return object.__new__(GroupAction2D)._set(
        generator=((Fraction(g11), Fraction(g12)), (Fraction(g21), Fraction(g22))),
        a=Fraction(A),
        b=Fraction(B),
        _fwd=fwd,
        _bwd=((g22, -g12), (-g21, g11)),
        _form=(A, B),
    )


def _fraction_json(f: Fraction):
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class DomainReport:
    """Outcome of a fundamental-domain verification run."""

    covering_ok: bool
    disjoint_ok: bool
    witnesses: tuple = field(default_factory=tuple)
    words_used: int = 0

    def __post_init__(self):
        _integer(self.words_used, "words_used")
        witnesses = _coordinates(self.witnesses, "witnesses", "dicts", dict)
        if not self.covering_ok and not any(
            w.get("kind") == "uncovered" for w in witnesses
        ):
            raise InvalidInput("covering failure requires a witness point")

    @property
    def ok(self) -> bool:
        return self.covering_ok and self.disjoint_ok

    def to_json_dict(self) -> dict:
        return {
            "covering_ok": self.covering_ok,
            "disjoint_ok": self.disjoint_ok,
            "witnesses": [dict(w) for w in self.witnesses],
            "words_used": self.words_used,
        }


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _simplest_between(u, v) -> list:
    """The ray [q, p] of the simplest rational p/q strictly between the
    slopes of u and v, for rays with positive first coordinate and u below
    v.  The simplest rational has the least denominator in the interval,
    and then the numerator nearest zero; it is read off the continued
    fractions of the two slopes, as in the Stern-Brocot tree, so its height
    stays small when the endpoints are huge but far apart."""
    (b, a), (d, c) = u, v  # slopes a/b < c/d with b, d > 0
    if a < 0 < c:
        return [1, 0]
    if c <= 0:
        q, p = _simplest_between((d, -c), (b, -a))
        return [q, -p]
    terms = []
    while True:
        n = a // b
        if (n + 1) * d < c:  # an integer lies strictly inside
            terms.append(n + 1)
            break
        terms.append(n)
        a, c = a - n * b, c - n * d  # now 0 <= a/b < c/d <= 1
        if a == 0:  # the interval is (n, n + c/d): take n + 1/t, t > d/c
            terms.append(d // c + 1)
            break
        a, b, c, d = d, c, b, a  # continue on the reciprocals
    p, p_prev, q, q_prev = 1, 0, 0, 1
    for t in terms:
        p, p_prev, q, q_prev = t * p + p_prev, p, t * q + q_prev, q
    return [q, p]


class _Translates(dict):
    """Row k of the translate table: the tuple of g^k r over a fixed tuple
    of rays, built on first read.  Row 0 holds the rays; a missing row k
    is built from the nearest built row toward k = 0, one product per ray
    per step, and every row passed on the way is kept.  Built rows are
    plain dict lookups.  The table has no bound of its own: its readers
    keep |k| within theirs."""

    __slots__ = ("_fwd", "_bwd")

    def __init__(self, action: GroupAction2D, rays) -> None:
        super().__init__({0: tuple(rays)})
        self._fwd, self._bwd = action._fwd, action._bwd

    def __missing__(self, k):
        step, m = (1, self._fwd) if k > 0 else (-1, self._bwd)
        j = k - step
        while j not in self:
            j -= step
        row = self[j]
        while j != k:
            j += step
            row = self[j] = tuple([_mat_vec(m, v) for v in row])
        return row


def _translates(pi: PolyhedralCone, action: GroupAction2D):
    """(rows, open_low, open_high, up): rows maps k to (g^k low, g^k high)
    for the extreme rays of pi in slope order (closed-cone rays have
    x1 > 0), built only as far as it is read.  If pi is cone{R, g(R)}, the
    side that g carries the other onto is open (flag 1), so the located
    index is a well-defined, shift-equivariant function; the flags read
    row 1.  up is the step in k that moves the translates toward larger
    slopes: the sign of g21, read off the interior ray (1, 0), whose image
    is (g11, g21); 0 is the scalar action.  A ray of pi would not do: a
    boundary ray is fixed by g.
    """
    if pi.dim != 2:
        raise ShapeMismatch("translate location works in the plane")
    for ray in pi.rays:
        if not action.closed_member(ray):
            raise PreconditionViolated(f"generator {ray} of pi is outside the closed cone")
    rays = pi.rays
    if len(rays) == 2 and _cross(*rays) < 0:  # listed high, then low
        rays = rays[::-1]
    low, high = rays[0], rays[-1]
    rows = _Translates(action, (low, high))
    open_low = open_high = 0
    if len(rays) == 2:  # both rays have x1 > 0, so collinear means equal rays
        g_low, g_high = rows[1]
        open_low = int(_cross(g_high, low) == 0)
        open_high = int(_cross(g_low, high) == 0)
    g21 = action._fwd[1][0]
    up = (g21 > 0) - (g21 < 0)
    return rows, open_low, open_high, up


def _locate(p, table, max_word: int):
    """The least k in -max_word..max_word with the integer direction p in
    g^k pi, or None.  On an open side a cross product must be >= 1, that
    is > 0.

    g translates the projectivized cone, so both ends of g^k pi move
    monotonically in k and the k with p in g^k pi form an interval.  The
    walk starts at k = 0 and steps toward p; it stops with None past
    +-max_word, or when it must turn back (p lies in a gap), which the
    scalar action (up = 0) does at once.  At the first translate holding p
    it steps down to the least such k.
    """
    rows, open_low, open_high, up = table
    x, y = p
    k, came = 0, 0
    while -max_word <= k <= max_word:
        (lx, ly), (hx, hy) = rows[k]
        if lx * y - ly * x < open_low:  # p lies below g^k pi
            step = -up
        elif x * hy - y * hx < open_high:  # p lies above g^k pi
            step = up
        else:
            while k > -max_word:
                (lx, ly), (hx, hy) = rows[k - 1]
                if lx * y - ly * x < open_low or x * hy - y * hx < open_high:
                    break
                k -= 1
            return k
        if step == -came:  # turning back, or no step at all
            return None
        k, came = k + step, step
    return None


def translate_locate(
    p,
    pi: PolyhedralCone,
    action: GroupAction2D,
    max_word: int = 24,
) -> int:
    """The least index k with |k| <= max_word and g^(-k) p in pi.

    The translates g^k pi holding p form an interval of k, so the search
    walks from k = 0 toward p and then down to the least such k; a gap
    between translates, or an interval past max_word, raises NotFundamental.
    Cells are half open: a point on the shared ray of pi and g(pi) is
    assigned to the translate on whose lower boundary it sits, so locating
    commutes with the action.  The rays of pi must lie in the closed cone.
    """
    _integer(max_word, "max_word")
    p = _coordinates(p)
    direction = _integer_point(p, 2)
    if not action.open_member(direction):
        raise NotInCone(f"point {format_point(p)} is outside the open cone")
    k = _locate(direction, _translates(pi, action), max_word)
    if k is None:
        raise NotFundamental(
            f"translates g^k pi with |k| <= {max_word} miss the point {format_point(p)}"
        )
    return k


def verify_fundamental_domain(
    pi: PolyhedralCone,
    action: GroupAction2D,
    samples: int = 500,
    max_word: int = 12,
    seed: int = 0,
) -> DomainReport:
    """Check both fundamental-domain axioms at desk scale.

    Covering: pi and g(pi) leave no gap (exact; a gap is the first uncovered
    witness), and each of ``samples`` seeded rational points of the open
    cone lies in some g^k pi with |k| <= max_word.  Disjointness: for
    1 <= |k| <= max_word the interiors of pi and g^k pi do not meet (exact,
    from the slope order of the table).  The scan takes k = s, then -s, for
    s = 1, 2, ... and stops after the first s with no overlap, since no
    larger |k| overlaps then.  Only the rows read are built: a few for a
    fundamental pi, all 2 * max_word + 1 when every step overlaps (the
    scalar action, or a ray of pi fixed by g).  A gap or overlap witness
    is the ray of the simplest slope strictly inside it.  The report is a
    deterministic function of (pi, action, samples, max_word, seed), and it
    is the report that locating every sample would give.  Both ends of
    g^k pi move monotonically in k, so the least k whose translate holds a
    ray is monotone in its slope; when pi and g(pi) leave no gap, a ray
    between two located samples is covered and its k lies between theirs.
    So a sample inside the slope range of the samples located so far is
    covered with |k| <= words_used and is not located; only a sample that
    widens that range is.  With a gap every sample is located.

    A sample is the point (n1/d1, n2/d2) with n1 in 1..60, n2 in -60..60
    and d1, d2 in 1..20, drawn from random.Random(seed).getrandbits
    exactly as randint draws them, and redrawn while it lies outside the
    open cone.  The smallest nonzero slope is 1/1200, so when
    b/a >= 1200^2 (d > 1,440,000 for real multiplication) every sample lies
    on the ray (1, 0).  A candidate lies in the open cone only if
    b * n2^2 < a * 1200^2, so the exact test runs only when |n2| is at most
    the reach, isqrt((a * 1200^2 - 1) / b) (3 at d = 100003, so 114 of the
    121 values of n2 skip it).  Every draw is made before that cut, so it
    leaves the sample stream and the report unchanged.
    """
    _integer(samples, "samples", 1, "samples and max_word must be positive")
    _integer(max_word, "max_word", 1, "samples and max_word must be positive")
    _integer(seed, "seed")
    table = _translates(pi, action)
    rows = table[0]
    (low, high), (g_low, g_high) = rows[0], rows[1]
    witnesses = []
    # g moves every ray the same way, so a gap between pi and g(pi) is
    # never closed by another translate
    for a, b in ((high, g_low), (g_high, low)):
        if _cross(a, b) > 0:
            witnesses.append({"kind": "uncovered", "point": _simplest_between(a, b)})
    # (lx, ly) and (hx, hy) bound the slope range of the located samples,
    # which grows only when there is no gap (see above); (0, 1) lies above
    # every ray and (0, -1) below, so the range is empty until the first
    widen = not witnesses
    lx, ly, hx, hy = 0, 1, 0, -1
    getrandbits = random.Random(seed).getrandbits
    A, B = action._form
    # a sample has x <= 60 * 20 and |y| >= |n2 - 60|, so it lies in the open
    # cone only if B * (n2 - 60)^2 < A * 1200^2, that is |n2 - 60| <= reach
    reach = math.isqrt((A * 1440000 - 1) // B)
    low_n2, high_n2 = 60 - reach, 60 + reach
    words_used = 0
    accepted = 0
    while accepted < samples:
        # randint(1, 60), randint(1, 20), randint(-60, 60) and
        # randint(1, 20) as CPython draws them, less their offsets 1, 1,
        # -60 and 1: n.bit_length() bits of the range size n, redrawn
        # while >= n
        n1 = getrandbits(6)
        while n1 >= 60:
            n1 = getrandbits(6)
        d1 = getrandbits(5)
        while d1 >= 20:
            d1 = getrandbits(5)
        n2 = getrandbits(7)
        while n2 >= 121:
            n2 = getrandbits(7)
        d2 = getrandbits(5)
        while d2 >= 20:
            d2 = getrandbits(5)
        if not low_n2 <= n2 <= high_n2:
            continue  # drawn in full, so the stream does not change
        # the sample is (n1 + 1)/(d1 + 1), (n2 - 60)/(d2 + 1); (x, y) is it
        # scaled by (d1 + 1)*(d2 + 1) > 0, and x >= 1, so this test is
        # open-cone membership and (x, y) its integer direction
        x, y = (n1 + 1) * (d2 + 1), (n2 - 60) * (d1 + 1)
        if A * x * x <= B * y * y:
            continue
        accepted += 1
        if lx * y - ly * x >= 0 and x * hy - y * hx >= 0:
            continue  # inside [lo, hi]: covered, and |k| <= words_used
        k = _locate((x, y), table, max_word)  # the route of translate_locate
        if k is not None:
            words_used = max(words_used, abs(k))
            if widen:
                if lx * y - ly * x < 0:
                    lx, ly = x, y
                if x * hy - y * hx < 0:
                    hx, hy = x, y
        else:
            point = [
                _fraction_json(Fraction(n1 + 1, d1 + 1)),
                _fraction_json(Fraction(n2 - 60, d2 + 1)),
            ]
            witnesses.append({"kind": "uncovered", "point": point})
    # pi and g^k pi overlap exactly when g^-k pi and pi do, and g moves pi
    # by a fixed length on the projectivized cone, so they overlap exactly
    # while |k| times that length is below the width of pi: the first step
    # with no overlap ends the scan.  The scalar action (length 0) and a pi
    # with a ray fixed by g (infinite width) overlap at every step, and a
    # single ray at none.
    for step in range(1, max_word + 1):
        overlapped = False
        for k in (step, -step):
            low_k, high_k = rows[k]
            lo = low_k if _cross(low, low_k) > 0 else low
            hi = high_k if _cross(high_k, high) > 0 else high
            if _cross(lo, hi) > 0:  # more than a ray in common: the interiors meet
                witnesses.append({"kind": "overlap", "k": k, "point": _simplest_between(lo, hi)})
                overlapped = True
        if not overlapped:
            break

    kinds = {w["kind"] for w in witnesses}
    return DomainReport(
        covering_ok="uncovered" not in kinds,
        disjoint_ok="overlap" not in kinds,
        witnesses=tuple(witnesses),
        words_used=words_used,
    )
