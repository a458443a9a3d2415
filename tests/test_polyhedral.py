import hashlib
import random
from fractions import Fraction

import pytest

from amplecones import (
    InvalidInput,
    PolyhedralCone,
    ShapeMismatch,
    UnsupportedDimension,
    cone_intersection,
    is_square_rational,
    poly_member,
    primitive_vector,
)
from amplecones.errors import format_point
from amplecones.polyhedral import _extreme_rays
from support import (
    caratheodory_member,
    random_right_halfplane_cone_rays,
    rational_rank,
    slope_interval_intersection,
    square_scan,
)


class TestPrimitiveVector:
    def test_examples(self):
        assert primitive_vector((2, 4)) == (1, 2)
        assert primitive_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
        assert primitive_vector((-2, 4)) == (-1, 2)  # orientation preserved
        with pytest.raises(InvalidInput):
            primitive_vector((0, 0))


class TestConstruction:
    def test_rejects_opposite_rays(self):
        with pytest.raises(InvalidInput):
            PolyhedralCone(2, [(1, 1), (-1, -1)])

    def test_rejects_proportional_rays(self):
        with pytest.raises(InvalidInput):
            PolyhedralCone(2, [(1, 2), (2, 4)])

    def test_rejects_cone_with_line(self):
        with_line = [
            (2, [(1, 0), (-1, 1), (-1, -1)]),
            (3, [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1)]),
            # the first three rays sum to zero, so they span a plane
            (4, [(1, 1, 0, 0), (-1, 0, 1, 0), (0, -1, -1, 0), (0, 0, 0, 1)]),
        ]
        for dim, rays in with_line:
            with pytest.raises(InvalidInput):
                PolyhedralCone(dim, rays)
        pyramid = PolyhedralCone(3, [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)])
        assert len(pyramid.rays) == 4

    def test_dimension_checked(self):
        with pytest.raises(ShapeMismatch):
            PolyhedralCone(2, [(1, 0, 0)])

    @pytest.mark.parametrize(
        "generators,extreme",
        [
            ([(1, 0), (1, 1), (2, 1)], ((1, 0), (1, 1))),
            ([(2, 1), (1, 1), (1, 0)], ((1, 1), (1, 0))),
            ([(2, 0), (4, 2), (1, 1), (0, 3)], ((1, 0), (0, 1))),
            ([(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)], ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
        ],
    )
    def test_keeps_extreme_rays_in_input_order(self, generators, extreme):
        cone = PolyhedralCone(len(extreme[0]), generators)
        assert cone.rays == extreme
        assert cone == PolyhedralCone(cone.dim, extreme)
        same = cone_intersection(cone, cone)
        assert cone == same and hash(cone) == hash(same)


class TestMembership:
    def test_examples(self):
        cone = PolyhedralCone(2, [(1, 0), (1, 1)])
        assert poly_member(cone, (2, 1))
        assert not poly_member(cone, (1, 1), interior=True)
        assert not poly_member(cone, (0, -1))

    def test_generators_and_interior(self):
        cone = PolyhedralCone(2, [(1, 0), (1, 1)])
        for ray in cone.rays:
            assert poly_member(cone, ray)
            assert not poly_member(cone, ray, interior=True)
        assert poly_member(cone, (2, 1), interior=True)
        assert poly_member(cone, (0, 0))  # origin is in every closed cone

    def test_single_ray_cone(self):
        cone = PolyhedralCone(2, [(1, 2)])
        assert poly_member(cone, (2, 4))
        assert not poly_member(cone, (-1, -2))
        assert not poly_member(cone, (1, 1))
        # a ray has empty interior relative to the plane
        assert not poly_member(cone, (1, 2), interior=True)

    def test_three_dimensional(self):
        octant = PolyhedralCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert poly_member(octant, (1, 2, 3))
        assert poly_member(octant, (1, 2, 3), interior=True)
        assert poly_member(octant, (0, 1, 1))
        assert not poly_member(octant, (0, 1, 1), interior=True)
        assert not poly_member(octant, (-1, 1, 1))

    def test_redundant_generator(self):
        cone = PolyhedralCone(2, [(1, 0), (2, 1), (1, 1)])
        assert poly_member(cone, (2, 1))
        assert poly_member(cone, (5, 1))
        assert not poly_member(cone, (1, 2))


class TestIntersection:
    def test_shared_boundary_ray(self):
        a = PolyhedralCone(2, [(1, 0), (1, 1)])
        b = PolyhedralCone(2, [(1, 1), (0, 1)])
        result = cone_intersection(a, b)
        assert result.rays == ((1, 1),)

    def test_containment(self):
        a = PolyhedralCone(2, [(1, 0), (1, 1)])
        b = PolyhedralCone(2, [(2, 1), (1, 1)])
        result = cone_intersection(a, b)
        assert set(result.rays) == {(2, 1), (1, 1)}

    def test_disjoint(self):
        a = PolyhedralCone(2, [(1, 0), (2, 1)])
        b = PolyhedralCone(2, [(1, 2), (0, 1)])
        assert cone_intersection(a, b) is None

    def test_three_dimensional(self):
        octant = PolyhedralCone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        inner = PolyhedralCone(3, [(1, 1, 0), (0, 1, 0), (0, 0, 1)])
        result = cone_intersection(octant, inner)
        assert set(result.rays) == {(1, 1, 0), (0, 1, 0), (0, 0, 1)}

    def test_four_dimensional(self):
        def unit(i):
            return tuple(1 if j == i else 0 for j in range(4))

        orthant = PolyhedralCone(4, [unit(i) for i in range(4)])
        inner = PolyhedralCone(
            4, [(1, 1, 0, 0), unit(1), unit(2), unit(3), (1, 0, 0, 1)]
        )
        result = cone_intersection(orthant, inner)
        assert set(result.rays) == set(inner.rays)

        opposite = PolyhedralCone(4, [(-1, 1, 1, 1), (-1, 2, 1, 1)])
        assert cone_intersection(orthant, opposite) is None

    def test_lower_dimensional_intersection(self):
        # a planar sector in 3-space capped against a ray through it
        sector = PolyhedralCone(3, [(1, 0, 0), (0, 1, 0)])
        ray = PolyhedralCone(3, [(1, 1, 0)])
        assert cone_intersection(sector, ray).rays == ((1, 1, 0),)
        assert cone_intersection(ray, sector).rays == ((1, 1, 0),)

    def test_dimension_cap(self):
        rays = [tuple(1 if i == j else 0 for i in range(5)) for j in range(5)]
        five = PolyhedralCone(5, rays)
        with pytest.raises(UnsupportedDimension):
            cone_intersection(five, five)

    def test_membership_cross_validation_3d(self):
        self._cross_validate(dim=3, pairs=60, points=20, seed=97)

    def test_membership_cross_validation_4d(self):
        self._cross_validate(dim=4, pairs=40, points=15, seed=131)

    @staticmethod
    def _cross_validate(dim, pairs, points, seed):
        # DD output must agree with direct feasibility on sampled points,
        # and every output ray must be extreme: outside the cone of the others
        rng = random.Random(seed)

        def random_cone():
            while True:
                rays = [
                    tuple(
                        [rng.randint(1, 4)]
                        + [rng.randint(-4, 4) for _ in range(dim - 1)]
                    )
                    for _ in range(rng.randint(2, dim + 1))
                ]
                try:
                    return PolyhedralCone(dim, rays)
                except InvalidInput:
                    continue  # proportional pair; redraw

        for _ in range(pairs):
            a, b = random_cone(), random_cone()
            inter = cone_intersection(a, b)
            if inter is not None:
                for ray in inter.rays:
                    assert poly_member(a, ray) and poly_member(b, ray)
                    others = [r for r in inter.rays if r != ray]
                    assert not caratheodory_member(others, ray, dim)
            for _ in range(points):
                p = tuple(
                    [1]
                    + [
                        Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(dim - 1)
                    ]
                )
                both = poly_member(a, p) and poly_member(b, p)
                if inter is None:
                    assert not both
                else:
                    assert poly_member(inter, p) == both

    def test_commutative_idempotent_sampled(self):
        rng = random.Random(47)
        for _ in range(100):
            a = PolyhedralCone(2, random_right_halfplane_cone_rays(rng))
            b = PolyhedralCone(2, random_right_halfplane_cone_rays(rng))
            ab = cone_intersection(a, b)
            ba = cone_intersection(b, a)
            if ab is None:
                assert ba is None
            else:
                assert set(ab.rays) == set(ba.rays)
            # idempotence: a cap a equals a
            aa = cone_intersection(a, a)
            assert aa == a and aa.rays == tuple(sorted(a.rays))

    def test_matches_slope_interval_oracle(self):
        rng = random.Random(53)
        for _ in range(500):
            rays_a = random_right_halfplane_cone_rays(rng)
            rays_b = random_right_halfplane_cone_rays(rng)
            a = PolyhedralCone(2, rays_a)
            b = PolyhedralCone(2, rays_b)
            expected = slope_interval_intersection(rays_a, rays_b)
            result = cone_intersection(a, b)
            if expected is None:
                assert result is None
            else:
                assert sorted(result.rays) == expected


class TestMembershipRoutes:
    def test_facet_signs_match_caratheodory_oracle(self):
        # closed membership from the stored facet description must agree
        # with an independent Caratheodory + Cramer oracle
        rng = random.Random(777)
        for _ in range(100):
            dim = rng.choice([2, 3, 4])
            while True:
                rays = [
                    tuple(
                        [rng.randint(1, 4)]
                        + [rng.randint(-4, 4) for _ in range(dim - 1)]
                    )
                    for _ in range(rng.randint(2, dim + 3))
                ]
                try:
                    cone = PolyhedralCone(dim, rays)
                    break
                except InvalidInput:
                    continue
            for _ in range(6):
                p = tuple(rng.randint(-8, 8) for _ in range(dim))
                if not any(p):
                    continue
                assert poly_member(cone, p) == caratheodory_member(cone.rays, p, dim)


def spanned(dim, generators):
    """The cone on ``generators`` and those generators made primitive; the
    cone itself keeps only the extreme ones."""
    generators = [primitive_vector(g) for g in generators]
    return PolyhedralCone(dim, generators), generators


class TestPinnedOutputs:
    """Every intersection and membership answer on 150 seeded 2-, 3- and
    4-d cone pairs, 4,230 outputs in all, pinned by the SHA-256 of their
    reprs.  The pairs include generic, lower-dimensional, one-ray and empty
    intersections; each intersection contributes its rays and its sorted
    normals, and each point its closed and interior verdicts on both cones
    and on the intersection.  The verdicts and rays are those of the double
    description that ran a second, dual pass to find the facets of an
    intersection; the normals of a lower-dimensional intersection are read
    off the incidence of its one run."""

    DIGEST = "d53250c02a768737c8a1ab913e37c08303ccefec8487ffe5798a2b04492a01f5"

    @staticmethod
    def random_cone(rng, dim, count, shift=None):
        """A cone on ``count`` random rays with first coordinate in 1..4,
        each moved by ``shift``, redrawn until the constructor accepts it,
        as ``spanned`` returns it."""
        shift = shift or (0,) * dim
        while True:
            rays = [
                tuple(s + c for s, c in zip(shift, [rng.randint(1, 4)] + [rng.randint(-4, 4) for _ in range(dim - 1)]))
                for _ in range(count)
            ]
            try:
                return spanned(dim, rays)
            except InvalidInput:
                continue

    @classmethod
    def pair(cls, rng, dim, style):
        """Two cones meeting, by style: in the interior of the first (0),
        in a lower dimension (1 and 4), in one ray (2), or as two random
        cones do, often only at 0 (3); each comes with its generators."""
        full, low = (dim, dim + 3), (min(2, dim - 1), dim - 1)
        a, rays = cls.random_cone(rng, dim, rng.randint(*(low if style == 4 else full)))
        centre = tuple(map(sum, zip(*rays)))
        if style == 2:
            return (a, rays), spanned(dim, [rng.choice((centre, rays[0]))])
        if style == 3:
            return (a, rays), cls.random_cone(rng, dim, rng.randint(*full))
        return (a, rays), cls.random_cone(rng, dim, rng.randint(*(full if style == 0 else low)), centre)

    @classmethod
    def outputs(cls):
        rng = random.Random(151)
        for dim in (2, 3, 4):
            for trial in range(50):
                (a, rays_a), (b, rays_b) = cls.pair(rng, dim, trial % 5)
                c = cone_intersection(a, b)
                cones = (a, b) if c is None else (a, b, c)
                generators = (rays_a, rays_b) if c is None else (rays_a, rays_b, c.rays)
                if c is None:
                    yield "None"
                else:
                    yield repr((c.rays, sorted(c._normals)))
                points = [tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(3)]
                points.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)))
                for rays in generators:
                    points.append(tuple(map(sum, zip(*rays))))
                    points.append(tuple(3 * x for x in rng.choice(rays)))
                for p in points:
                    for cone in cones:
                        yield repr((poly_member(cone, p), poly_member(cone, p, interior=True)))

    def test_digest(self):
        outputs = list(self.outputs())
        assert len(outputs) == 4230
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        assert digest == self.DIGEST


def describes(normals, rays, dim):
    """Whether ``normals`` cut out the pointed cone with extreme rays
    ``rays``, by a double description run from scratch."""
    lin, found = _extreme_rays(normals, dim)
    return not lin and sorted(v for v, _ in found) == sorted(rays)


class TestTrustedIntersection:
    """Intersections are built from the double description's incidence,
    without the validating constructor; they must be the cones it builds."""

    @staticmethod
    def intersections():
        """The nonempty intersections of seeded pairs in dimensions 1 to
        4, each with the cone the validating constructor builds on its
        rays."""
        rng = random.Random(163)
        pairs = [(PolyhedralCone(1, [(s,)]), PolyhedralCone(1, [(t,)])) for s in (1, -1) for t in (1, -1)]
        for dim in (2, 3, 4):
            for trial in range(60):
                (a, _), (b, _) = TestPinnedOutputs.pair(rng, dim, trial % 5)
                pairs.append((a, b))
        for a, b in pairs:
            c = cone_intersection(a, b)
            if c is not None:
                yield c, PolyhedralCone(a.dim, c.rays)

    def test_matches_validating_constructor(self):
        full = low = 0
        for c, rebuilt in self.intersections():
            assert c.rays == tuple(sorted(c.rays))
            assert len(set(c._normals)) == len(c._normals)
            if rational_rank(c.rays) == c.dim:
                assert set(c._normals) == set(rebuilt._normals)
                full += 1
            else:
                # the implicit equations may come with redundant ones
                assert describes(c._normals, c.rays, c.dim)
                low += 1
            assert c == rebuilt and hash(c) == hash(rebuilt)
        assert full >= 60 and low >= 40

    def test_lower_dimensional_verdicts_match_validating_constructor(self):
        rng = random.Random(179)
        low = 0
        for c, rebuilt in self.intersections():
            if rational_rank(c.rays) == c.dim:
                continue
            low += 1
            dim, rays = c.dim, c.rays
            points = [tuple(map(sum, zip(*rays)))]
            for r in rays:
                points += [tuple(3 * x for x in r), tuple(-3 * x for x in r)]
            for _ in range(4):
                points.append(tuple(rng.randint(-5, 5) for _ in range(dim)))
                points.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim)))
                # a point of the span, inside the cone or not
                weights = [Fraction(rng.randint(-3, 6), rng.randint(1, 3)) for _ in rays]
                points.append(tuple(sum(w * x for w, x in zip(weights, col)) for col in zip(*rays)))
            for p in points:
                for interior in (False, True):
                    assert poly_member(c, p, interior=interior) == poly_member(rebuilt, p, interior=interior)
        assert low >= 40

    def test_membership_ignores_scale_and_type(self):
        rng = random.Random(167)
        for dim in (2, 3, 4):
            for trial in range(30):
                cone, _ = TestPinnedOutputs.random_cone(rng, dim, rng.randint(1, dim + 3))
                for _ in range(8):
                    p = tuple(rng.randint(-5, 5) for _ in range(dim))
                    if not any(p):
                        continue
                    k = rng.randint(2, 6)
                    forms = [p, tuple(k * x for x in p), tuple(map(Fraction, p))]
                    for interior in (False, True):
                        verdicts = {poly_member(cone, q, interior=interior) for q in forms}
                        assert len(verdicts) == 1


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


class TestSeededIntersection:
    """An intersection's double description starts from one operand's
    stored incidence: its extreme rays, each with the normals it is tight
    on.  Seeded pairs in dimensions 1 to 4: generic, lower-dimensional,
    single-ray, meeting only at the origin, and operands with generators
    that are not extreme."""

    @staticmethod
    def with_inner_generators(rng, dim):
        """A cone whose generators include sums of two others, as
        ``spanned`` returns it."""
        while True:
            _, rays = TestPinnedOutputs.random_cone(rng, dim, rng.randint(2, dim + 2))
            inner = [tuple(map(sum, zip(*rng.sample(rays, 2)))) for _ in range(2)]
            try:
                return spanned(dim, rays + inner)
            except InvalidInput:
                continue  # two sums proportional to each other; redraw

    @classmethod
    def pairs(cls):
        """Seeded operand pairs, each cone with its primitive generators."""
        rng = random.Random(173)
        pairs = [(spanned(1, [(s,)]), spanned(1, [(t,)])) for s in (1, -2) for t in (3, -1)]
        for dim in (2, 3, 4):
            for trial in range(36):
                if trial % 6 == 5:
                    pairs.append((cls.with_inner_generators(rng, dim), cls.with_inner_generators(rng, dim)))
                else:
                    pairs.append(TestPinnedOutputs.pair(rng, dim, trial % 6))
        return pairs

    def test_seeded_run_matches_run_from_scratch(self):
        met = inner = 0
        for (a, generators), (b, _) in self.pairs():
            for seed, other in ((a, b), (b, a)):
                normals = seed._normals + other._normals
                lin, rays = _extreme_rays(normals, a.dim)
                assert not lin
                start = (len(seed._normals), [list(p) for p in zip(seed.rays, seed._masks)])
                assert sorted(_extreme_rays(normals, a.dim, start)[1]) == sorted(rays)
            inner += len(a.rays) < len(generators)
            c = cone_intersection(a, b)
            if not rays:
                assert c is None
                continue
            met += 1
            vectors = sorted(v for v, _ in rays)
            reference = PolyhedralCone(a.dim, vectors)
            assert c.rays == tuple(vectors)
            if rational_rank(vectors) == a.dim:
                assert set(c._normals) == set(reference._normals)
            else:
                assert describes(c._normals, vectors, a.dim)
        assert met >= 60 and inner >= 10

    def test_commutative(self):
        for (a, _), (b, _) in self.pairs():
            ab, ba = cone_intersection(a, b), cone_intersection(b, a)
            assert ab == ba
            if ab is not None:
                assert ab.rays == ba.rays
                assert set(ab._normals) == set(ba._normals)

    def test_incidence_matches_dot_products(self):
        cones = []
        for (a, _), (b, _) in self.pairs():
            cones += [a, b]
            c = cone_intersection(a, b)
            if c is not None:
                cones.append(c)
                cones += filter(None, [cone_intersection(c, a), cone_intersection(b, c)])
        for cone in cones:
            normals = cone._normals
            expected = []
            for r in cone.rays:
                tight = [n for n in normals if dot(n, r) == 0]
                assert rational_rank(tight) == cone.dim - 1  # r spans a face
                expected.append(sum(1 << i for i, n in enumerate(normals) if dot(n, r) == 0))
            assert cone._masks == tuple(expected)


class TestHostileCoordinates:
    def test_rejects_coordinates_that_are_not_finite_rationals(self):
        cone = PolyhedralCone(2, [(1, 0), (1, 1)])
        for bad in (None, float("nan"), float("inf"), float("-inf"), "x", 1j):
            for point in ((bad, 0), (0, bad), (1, bad), (-1, bad)):
                message = f"coordinates of {format_point(point)} must be finite rational numbers"
                for interior in (False, True):
                    with pytest.raises(InvalidInput) as info:
                        poly_member(cone, point, interior=interior)
                    assert str(info.value) == message
                with pytest.raises(InvalidInput, match="must be finite rational"):
                    PolyhedralCone(2, [(1, 1), point])
                with pytest.raises(InvalidInput, match="must be finite rational"):
                    primitive_vector(point)

    def test_rejects_text_as_a_vector(self):
        cone = PolyhedralCone(2, [(1, 0), (1, 1)])
        for text in ("10", b"10", bytearray(b"10")):
            message = f"a vector must be a sequence of coordinates, not {type(text).__name__}"
            for interior in (False, True):
                with pytest.raises(InvalidInput) as info:
                    poly_member(cone, text, interior=interior)
                assert str(info.value) == message
            with pytest.raises(InvalidInput, match="sequence of coordinates"):
                PolyhedralCone(2, [text, "11"])
            with pytest.raises(InvalidInput, match="sequence of coordinates"):
                primitive_vector(text)
        # coordinates given as text are still read as rationals
        assert poly_member(cone, ("1/2", 0))
        assert primitive_vector(("1/2", 3)) == (1, 6)
        assert PolyhedralCone(2, [("1", "0"), ("1/2", "1/2")]).rays == ((1, 0), (1, 1))

    def test_origin_and_rational_points_keep_their_verdicts(self):
        cone = PolyhedralCone(2, [(1, 0), (1, 1)])
        for origin in ((0, 0), (Fraction(0), 0), (0.0, Fraction(0))):
            assert poly_member(cone, origin)
            assert not poly_member(cone, origin, interior=True)
        assert poly_member(cone, (0.5, Fraction(1, 4)), interior=True)
        assert not poly_member(cone, (Fraction(-1, 3), 0))


class TestSquareRational:
    def test_examples(self):
        assert is_square_rational(4)
        assert not is_square_rational(2)
        assert is_square_rational(Fraction(9, 4))

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            is_square_rational(0)
        with pytest.raises(InvalidInput):
            is_square_rational(Fraction(-1, 2))

    def test_matches_scan_oracle(self):
        rng = random.Random(59)
        for _ in range(300):
            if rng.random() < 0.5:
                s = Fraction(rng.randint(1, 40), rng.randint(1, 40))
                q = s * s
            else:
                q = Fraction(rng.randint(1, 1600), rng.randint(1, 1600))
            assert is_square_rational(q) == square_scan(q)
