"""Exact rational polyhedral cones in low dimension.

A cone is stored by its generators (primitive integer rays, orientation
preserved) and by its facet description, which the double description
method computes once, at construction, over the integers.  Every question
is answered from that description with integer dot products: closed and
interior membership from facet signs, pointedness from its rank, and the
extreme rays of an intersection from double description of the two facet
descriptions, whose adjacency test keeps exactly the extreme rays.
Intersections are supported up to ambient dimension 4.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInput, ShapeMismatch, UnsupportedDimension, format_point

MAX_INTERSECTION_DIM = 4


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive factor to a primitive
    integer vector (orientation is preserved)."""
    vt = tuple(v)
    if all(type(c) is int for c in vt):
        g = 0
        for c in vt:
            g = math.gcd(g, c)
        if g == 0:
            raise InvalidInput("zero vector has no primitive representative")
        return vt if g == 1 else tuple(c // g for c in vt)
    fracs = [Fraction(c) for c in vt]
    if not any(fracs):
        raise InvalidInput("zero vector has no primitive representative")
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // math.gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for c in ints:
        g = math.gcd(g, c)
    return tuple(c // g for c in ints)


class RayClass:
    """A rational ray, stored as its primitive integer direction vector.

    Orientation matters: the rays through v and -v are different objects.
    When an unoriented comparison is wanted, use :meth:`unoriented_key`,
    which flips the sign so the first nonzero coordinate is positive.
    """

    __slots__ = ("vector",)

    def __init__(self, vector) -> None:
        object.__setattr__(self, "vector", primitive_vector(vector))

    def __setattr__(self, name, value):
        raise AttributeError("RayClass is immutable")

    def unoriented_key(self) -> tuple[int, ...]:
        v = self.vector
        for c in v:
            if c != 0:
                return v if c > 0 else tuple(-x for x in v)
        raise InvalidInput("zero ray")

    def __eq__(self, other):
        if not isinstance(other, RayClass):
            return NotImplemented
        return self.vector == other.vector

    def __hash__(self):
        return hash(self.vector)

    def __repr__(self):
        return f"RayClass({list(self.vector)})"


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _rank(vectors) -> int:
    """Rank over Q of integer vectors, by fraction-free elimination."""
    rows = [list(v) for v in vectors]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((j for j, c in enumerate(pivot) if c), None)
        if col is None:
            continue
        rank += 1
        lead = pivot[col]
        rows = [[lead * x - r[col] * y for x, y in zip(r, pivot)] for r in rows]
    return rank


# --- Double description ------------------------------------------------------

def _extreme_rays(normals, dim: int):
    """Lineality basis and extreme rays of {x : <a, x> >= 0 for all a}.

    Standard incremental double description with the combinatorial adjacency
    test, over the integers: the normals are integer vectors and every vector
    is kept primitive to control coefficient growth.
    """
    lin = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rays: list[dict] = []
    for idx, a in enumerate(normals):
        scores = [_dot(a, l) for l in lin]
        hit = next((i for i, s in enumerate(scores) if s != 0), None)
        if hit is not None:
            l0, s0 = lin[hit], scores[hit]
            if s0 < 0:
                l0 = tuple(-c for c in l0)
                s0 = -s0
            lin = [
                l if s == 0 else primitive_vector(
                    tuple(s0 * c - s * c0 for c, c0 in zip(l, l0))
                )
                for i, (l, s) in enumerate(zip(lin, scores))
                if i != hit
            ]
            for r in rays:
                s = _dot(a, r["v"])
                if s != 0:
                    r["v"] = primitive_vector(
                        tuple(s0 * c - s * c0 for c, c0 in zip(r["v"], l0))
                    )
                r["zero"].add(idx)
            rays.append({"v": primitive_vector(l0), "zero": set(range(idx))})
            continue
        pos, zero, neg = [], [], []
        for r in rays:
            s = _dot(a, r["v"])
            if s > 0:
                pos.append((r, s))
            elif s == 0:
                zero.append(r)
            else:
                neg.append((r, s))
        for r in zero:
            r["zero"].add(idx)
        fresh = []
        current = [r for r, _ in pos] + zero + [r for r, _ in neg]
        for p, sp in pos:
            for n, sn in neg:
                common = p["zero"] & n["zero"]
                if any(
                    r is not p and r is not n and common <= r["zero"]
                    for r in current
                ):
                    continue
                combo = tuple(
                    sp * cn - sn * cp for cp, cn in zip(p["v"], n["v"])
                )
                fresh.append(
                    {"v": primitive_vector(combo), "zero": (common | {idx})}
                )
        rays = [r for r, _ in pos] + zero + fresh
    return lin, [r["v"] for r in rays]


class PolyhedralCone:
    """Finitely many rational generator rays in a fixed-dimension space.

    Rays are normalized to primitive integer vectors with orientation kept.
    Construction rejects proportional ray pairs (in particular v and -v)
    and cones whose closure contains a line.

    The facet description is computed once, at construction, by double
    description of the dual cone {y : <y, r> >= 0 for every ray r}: its
    lineality basis gives the equations (normals to the span of the cone)
    and its extreme rays give the facet normals, all primitive integer
    vectors.  The cone is pointed exactly when equations and facets
    together have full rank.
    """

    __slots__ = ("dim", "rays", "_equations", "_facets")

    def __init__(self, dim: int, rays) -> None:
        if dim < 1:
            raise InvalidInput("ambient dimension must be positive")
        normalized = []
        for ray in rays:
            ray = tuple(ray)
            if len(ray) != dim:
                raise ShapeMismatch(
                    f"ray {format_point(ray)} does not live in dimension {dim}"
                )
            normalized.append(primitive_vector(ray))
        if not normalized:
            raise InvalidInput("a polyhedral cone needs at least one ray")
        unoriented = set()
        for v in normalized:
            key = v if next(c for c in v if c) > 0 else tuple(-c for c in v)
            if key in unoriented:
                raise InvalidInput(f"proportional rays detected: {v}")
            unoriented.add(key)
        equations, facets = _extreme_rays(normalized, dim)
        if _rank(equations + facets) < dim:
            raise InvalidInput("cone closure contains a line")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rays", tuple(normalized))
        object.__setattr__(self, "_equations", tuple(equations))
        object.__setattr__(self, "_facets", tuple(facets))

    def __setattr__(self, name, value):
        raise AttributeError("PolyhedralCone is immutable")

    def transform(self, matrix) -> "PolyhedralCone":
        """Image cone under an invertible integer/rational matrix (rows)."""
        rows = [tuple(Fraction(c) for c in row) for row in matrix]
        if len(rows) != self.dim or any(len(r) != self.dim for r in rows):
            raise ShapeMismatch("matrix shape does not match cone dimension")
        images = []
        for ray in self.rays:
            images.append(tuple(_dot(row, ray) for row in rows))
        return PolyhedralCone(self.dim, images)

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rays]

    def __eq__(self, other):
        if not isinstance(other, PolyhedralCone):
            return NotImplemented
        return self.dim == other.dim and set(self.rays) == set(other.rays)

    def __hash__(self):
        return hash((self.dim, frozenset(self.rays)))

    def __repr__(self):
        return f"PolyhedralCone({self.dim}, {[list(r) for r in self.rays]})"


def poly_member(cone: PolyhedralCone, v, interior: bool = False) -> bool:
    """Closed mode: is v a nonnegative combination of the rays?  Interior
    mode: does v lie in the topological interior relative to the ambient
    space (empty unless the cone is full-dimensional)?

    Both are read off the facet signs at the primitive integer direction of
    v: closed iff every equation gives 0 and every facet gives >= 0;
    interior iff there are no equations and every facet gives > 0.
    """
    v = tuple(v)
    if len(v) != cone.dim:
        raise ShapeMismatch(
            f"point {format_point(v)} does not live in dimension {cone.dim}"
        )
    if not any(v):
        return not interior  # the origin is on the boundary of a pointed cone
    v = primitive_vector(v)
    if interior:
        return not cone._equations and all(_dot(f, v) > 0 for f in cone._facets)
    return all(_dot(e, v) == 0 for e in cone._equations) and all(
        _dot(f, v) >= 0 for f in cone._facets
    )


def cone_intersection(a: PolyhedralCone, b: PolyhedralCone):
    """Generators of the intersection via double description on the two
    facet descriptions, or None when the cones meet only at the origin."""
    if a.dim != b.dim:
        raise ShapeMismatch("cones live in different dimensions")
    if a.dim > MAX_INTERSECTION_DIM:
        raise UnsupportedDimension(
            f"intersections are supported up to dimension {MAX_INTERSECTION_DIM}"
        )
    normals = []
    for cone in (a, b):
        for e in cone._equations:
            normals.append(e)
            normals.append(tuple(-c for c in e))
        normals.extend(cone._facets)
    lin, rays = _extreme_rays(normals, a.dim)
    assert not lin, "intersection of pointed cones cannot contain a line"
    if not rays:
        return None
    return PolyhedralCone(a.dim, sorted(rays))


def is_square_rational(q) -> bool:
    """Is the positive rational q the square of a rational number?"""
    q = Fraction(q)
    if q <= 0:
        raise InvalidInput(f"expected a positive rational, got {q}")
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    return rn * rn == num and rd * rd == den
