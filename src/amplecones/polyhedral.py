"""Exact rational polyhedral cones in low dimension.

A cone is stored by its extreme rays (primitive integer vectors,
orientation preserved, in the order they were given) and by one list of
normals, an inequality description {x : <n, x> >= 0 for every normal n}
of the cone, computed over the integers by the double description method.
A generator that is not extreme is dropped, so ``==`` and ``hash``, which
compare the extreme rays, compare cones: a pointed cone is determined by
its extreme rays.  Every question is answered from the normals with
integer dot products: closed and interior membership from their signs,
stopping at the first normal that decides the verdict, and the extreme
rays of an intersection from double description of the two operands'
normals, whose adjacency test keeps exactly the extreme rays; a step
whose normal is negative on no ray keeps the rays it has.

Double description keeps each ray's incidence, the normals it is tight on,
as the bits of an int, so the adjacency test is a few integer operations.
Each cone keeps one mask per extreme ray, its incidence on the cone's own
normals, read off the masks of the run that built it with no dot products;
pointedness and the extreme generators come from the same masks.  An
intersection starts its double description from the incidence of the
operand with more normals, the state a run over those normals would reach,
and processes only the other operand's normals.  Every intersection, of
any dimension, reads its normals off the incidence of that run and runs
no second, dual double description: the normals tight on every ray are
its implicit equations, and among the others, those whose sets of tight
rays are maximal are its facets (Fukuda and Prodon, "Double description
method revisited", 1996).  The order of the stored normals is private.
Intersections are supported up to ambient dimension 4.
"""

from __future__ import annotations

import math
from operator import mul

from .errors import (
    InvalidInput,
    ShapeMismatch,
    UnsupportedDimension,
    _integer,
    _integer_point,
    _Record,
    _repr,
)

MAX_INTERSECTION_DIM = 4


def primitive_vector(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector by a positive factor to a primitive
    integer vector (orientation is preserved)."""
    v = _integer_point(v)
    if not any(v):
        raise InvalidInput("zero vector has no primitive representative")
    return _primitive(v)


def _primitive(v) -> tuple[int, ...]:
    """A nonzero integer tuple divided by the gcd of its entries."""
    g = math.gcd(*v)
    return v if g == 1 else tuple([c // g for c in v])


# --- Double description ------------------------------------------------------

def _extreme_rays(normals, dim: int, start=None):
    """Lineality basis and extreme rays of {x : <a, x> >= 0 for all a}.

    Standard incremental double description with the combinatorial adjacency
    test, over the integers: the normals are integer vectors and every vector
    is kept primitive to control coefficient growth.  Each extreme ray comes
    as a pair [vector, mask] in which bit i of mask is set exactly when the
    ray is tight on normals[i].

    ``start``, when given, is a pair (k, rays): the extreme rays, with their
    masks, of the pointed cone cut out by normals[:k].  The run then begins
    at normals[k] with no lineality, in the state it would have reached.
    """
    if start is None:
        k, rays = 0, []
        lin = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    else:
        (k, rays), lin = start, []
    for idx in range(k, len(normals)):
        a = normals[idx]
        bit = 1 << idx
        hit = None
        if lin:
            scores = [sum(map(mul, a, l)) for l in lin]
            hit = next((i for i, s in enumerate(scores) if s != 0), None)
        if hit is not None:
            l0, s0 = lin[hit], scores[hit]
            if s0 < 0:
                l0 = tuple([-c for c in l0])
                s0 = -s0
            lin = [
                l if s == 0 else _primitive(tuple([s0 * c - s * c0 for c, c0 in zip(l, l0)]))
                for i, (l, s) in enumerate(zip(lin, scores))
                if i != hit
            ]
            for r in rays:
                s = sum(map(mul, a, r[0]))
                if s != 0:
                    r[0] = _primitive(tuple([s0 * c - s * c0 for c, c0 in zip(r[0], l0)]))
                r[1] |= bit
            rays.append([_primitive(l0), bit - 1])
            continue
        pos, zero, neg = [], [], []
        for r in rays:
            s = sum(map(mul, a, r[0]))
            if s > 0:
                pos.append((r, s))
            elif s == 0:
                r[1] |= bit
                zero.append(r)
            else:
                neg.append((r, s))
        if not neg:
            # the normal cuts nothing off: every ray stays, as it is
            rays = [r for r, _ in pos] + zero
            continue
        # two rays are adjacent only if they share dim - len(lin) - 2 tight
        # normals, and exactly if no third ray is tight on all they share
        need = dim - len(lin) - 2
        masks = [r[1] for r in rays]
        fresh = []
        for p, sp in pos:
            pv, pm = p
            for n, sn in neg:
                nv, nm = n
                common = pm & nm
                if common.bit_count() < need:
                    continue
                if sum(m & common == common for m in masks) > 2:
                    continue
                combo = tuple([sp * cn - sn * cp for cp, cn in zip(pv, nv)])
                fresh.append([_primitive(combo), common | bit])
        rays = [r for r, _ in pos] + zero + fresh
    return lin, rays


class PolyhedralCone(_Record):
    """The pointed cone spanned by finitely many rational generator rays in
    a fixed-dimension space, stored as its extreme rays.

    Generators are normalized to primitive integer vectors with orientation
    kept.  Construction rejects proportional generator pairs (in particular
    v and -v) and cones whose closure contains a line.  ``rays`` holds the
    extreme generators in input order, so cones that are equal as sets
    compare and hash equal whatever redundant generators built them.

    The normals are computed once, at construction, by double description
    of the dual cone {y : <y, r> >= 0 for every ray r}: each vector e of
    its lineality basis, an equation of the span of the cone, gives the
    pair of normals e, -e, and its extreme rays, the facet normals, follow.
    All are primitive integer vectors.

    The cone also keeps its incidence: ``_masks[j]`` is a mask over its
    normals in which bit i is set when ``rays[j]`` is tight on normal i.  The dual run
    yields it with no dot products, as a mask per facet over the
    generators.  The cone is pointed exactly when no generator is tight
    on every facet, and a generator is extreme exactly when it is the only
    one tight on all the facets it is tight on.  An intersection starts
    its double description from this incidence.
    """

    __slots__ = ("dim", "rays", "_normals", "_masks")

    def __init__(self, dim: int, rays) -> None:
        _integer(dim, "dim", 1, "ambient dimension must be positive")
        normalized = [primitive_vector(_integer_point(ray, dim)) for ray in rays]
        if not normalized:
            raise InvalidInput("a polyhedral cone needs at least one ray")
        unoriented = set()
        for v in normalized:
            key = v if next(c for c in v if c) > 0 else tuple(-c for c in v)
            if key in unoriented:
                raise InvalidInput(f"proportional rays detected: {v}")
            unoriented.add(key)
        equations, dual = _extreme_rays(normalized, dim)
        # rows[j]: the facets tight on generator j; spans[j]: the generators
        # tight on all of them, those in the smallest face through j
        n = len(normalized)
        rows, spans = [0] * n, [(1 << n) - 1] * n
        for i, (_, column) in enumerate(dual):
            bit, rest = 1 << i, column
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rows[j] |= bit
                spans[j] &= column
                rest ^= low
        # a generator tight on every facet is orthogonal to the whole dual
        # cone, so its negative lies in the cone as well
        if (1 << len(dual)) - 1 in rows:
            raise InvalidInput("cone closure contains a line")
        normals = []
        for e in equations:
            normals += [e, tuple([-c for c in e])]
        eq = len(normals)
        tight = (1 << eq) - 1  # every ray is tight on e and -e
        # generator j is extreme when the smallest face through it is its ray
        extreme = [j for j in range(n) if spans[j] == 1 << j]
        self._set(
            dim=dim,
            rays=tuple([normalized[j] for j in extreme]),
            _normals=tuple(normals + [f for f, _ in dual]),
            _masks=tuple([tight | rows[j] << eq for j in extreme]),
        )

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rays]

    def __eq__(self, other):
        if not isinstance(other, PolyhedralCone):
            return NotImplemented
        return self.dim == other.dim and set(self.rays) == set(other.rays)

    def __hash__(self):
        return hash((self.dim, frozenset(self.rays)))

    def __repr__(self):
        return f"PolyhedralCone({self.dim}, {_repr([list(r) for r in self.rays])})"


def _transpose(columns, n: int) -> list[int]:
    """The n rows of a 0/1 matrix given by its columns as bit masks: bit i
    of row j is set exactly when bit j of columns[i] is."""
    rows = [0] * n
    for i, c in enumerate(columns):
        bit = 1 << i
        while c:
            low = c & -c
            rows[low.bit_length() - 1] |= bit
            c ^= low
    return rows


def _trusted(dim: int, rays, normals, masks) -> PolyhedralCone:
    """A PolyhedralCone from its extreme rays, normals and incidence masks,
    with no validation.

    Only the library's own exact results come through here: the rays must
    be the distinct primitive extreme rays of a pointed cone, the normals
    an inequality description of it, and masks[j] the normals tight on
    rays[j].  The public constructor keeps full validation.  The callers
    are ``cone_intersection`` and ``abelian.real_mult_fundamental_domain``,
    which writes its cone in closed form.
    """
    return object.__new__(PolyhedralCone)._set(
        dim=dim,
        rays=tuple(rays),
        _normals=tuple(normals),
        _masks=tuple(masks),
    )


def poly_member(cone: PolyhedralCone, v, interior: bool = False) -> bool:
    """Closed mode: is v a nonnegative combination of the rays?  Interior
    mode: does v lie in the topological interior relative to the ambient
    space (empty unless the cone is full-dimensional)?

    Both are read off the signs of the normals at v, or at v scaled to
    integers when it has coordinates that are not ints (the signs do not
    change under positive scaling): closed iff every normal gives >= 0;
    interior iff every normal gives > 0.  Both rules are exact for any
    inequality description, and a point that passes the second has a
    neighbourhood in the cone, so none does when the cone spans less.
    The normals are read in turn, up to the first that decides.  A
    coordinate that is not a finite rational, or a point given as text,
    raises InvalidInput.
    """
    v = _integer_point(v, cone.dim)
    if interior:
        for n in cone._normals:
            if sum(map(mul, n, v)) <= 0:
                return False
        return True
    for n in cone._normals:
        if sum(map(mul, n, v)) < 0:
            return False
    return True


def cone_intersection(a: PolyhedralCone, b: PolyhedralCone):
    """The intersection, by double description on the two operands'
    normals, or None when the cones meet only at the origin.

    The run starts from the extreme rays and masks of the operand with more
    normals, the state double description reaches after them, and
    processes only the other operand's normals.  The result, of any
    dimension, takes its normals from the incidence of that run: every
    distinct normal tight on all its rays, and, for each set of tight rays
    that is maximal among the other normals, the least normal with that
    set, so the normals do not depend on the operands' order."""
    if a.dim != b.dim:
        raise ShapeMismatch("cones live in different dimensions")
    if a.dim > MAX_INTERSECTION_DIM:
        raise UnsupportedDimension(
            f"intersections are supported up to dimension {MAX_INTERSECTION_DIM}"
        )
    seed, other, start = a._normals, b._normals, a
    if len(other) > len(seed):
        seed, other, start = other, seed, b
    normals = seed + other
    # a pointed seed leaves no lineality, so none comes back
    state = (len(seed), [[r, m] for r, m in zip(start.rays, start._masks)])
    _, rays = _extreme_rays(normals, a.dim, state)
    if not rays:
        return None
    rays.sort()
    vectors = [v for v, _ in rays]
    # tight[i], column i of the incidence, holds the rays tight on normal i
    tight = _transpose([m for _, m in rays], len(normals))
    # the normals tight on every ray are the implicit equations; their cone
    # is the orthogonal complement of the span, so they cut out the span
    # together and each is kept as it is, with no basis picked
    every = (1 << len(vectors)) - 1
    kept = {n: t for n, t in zip(normals, tight) if t == every}
    # the facets are the other normals whose tight sets are maximal; a
    # strict superset has more bits, so it comes first and lies in a
    # maximal set already found
    maximal = []
    for t in sorted(set(tight) - {every}, key=int.bit_count, reverse=True):
        if not any(m & t == t for m in maximal):
            maximal.append(t)
    # one normal per maximal set, the least, whichever operand seeded
    facets = {}
    for n, t in zip(normals, tight):
        if t in maximal and (t not in facets or n < facets[t]):
            facets[t] = n
    kept.update((n, t) for t, n in facets.items())
    return _trusted(a.dim, vectors, kept, _transpose(kept.values(), len(vectors)))
