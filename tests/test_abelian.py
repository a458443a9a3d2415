import math
import random
from fractions import Fraction

import pytest

from amplecones import (
    AbelianVarietyModel,
    AlbertForm,
    AlbertRealType,
    AlgebraMatrix,
    ConeSpec,
    GroupAction2D,
    HermitianMatrix,
    InvalidInput,
    NotInCone,
    PDBlock,
    PerfectSquareInput,
    PolyhedralCone,
    QuadIrrational,
    ScalarKind,
    ShapeMismatch,
    SimpleFactor,
    UnitElement,
    act,
    ample_cone,
    aut_action,
    bauer_rational_polyhedral,
    cone_member,
    dirichlet_data,
    endo_real_decomposition,
    fundamental_unit,
    model_from_json_dict,
    model_to_json_dict,
    picard_number,
    real_mult_fundamental_domain,
    rosati_fixed_basis,
    surface_nef_data,
    verify_fundamental_domain,
)
from amplecones import abelian, scalars
from support import (
    LARGE_RADICANDS,
    random_invertible_matrix,
    random_model,
    random_pd_matrix,
    unit_radicands,
)

R, C, H = ScalarKind.REAL, ScalarKind.COMPLEX, ScalarKind.QUATERNION


def factor(fid, form, m=1, n=1):
    return SimpleFactor(id=fid, albert=AlbertRealType(form=form, m=m), multiplicity=n)


def model(*factors):
    return AbelianVarietyModel(factors=tuple(factors))


E_SQUARED = model(factor("E", AlbertForm.REAL_SPLIT, n=2))
E1_X_E2 = model(factor("E1", AlbertForm.REAL_SPLIT), factor("E2", AlbertForm.REAL_SPLIT))
REAL_MULT = model(factor("J", AlbertForm.REAL_SPLIT, m=2))
CM_SQUARED = model(factor("E", AlbertForm.COMPLEX_SPLIT, n=2))


class TestDecomposition:
    def test_examples(self):
        blocks = endo_real_decomposition(E_SQUARED).blocks
        assert [(b.kind, b.size) for b in blocks] == [(R, 2)]

        blocks = endo_real_decomposition(E1_X_E2).blocks
        assert [(b.kind, b.size) for b in blocks] == [(R, 1), (R, 1)]
        assert blocks[0].origin != blocks[1].origin

        blocks = endo_real_decomposition(REAL_MULT).blocks
        assert [(b.kind, b.size) for b in blocks] == [(R, 1), (R, 1)]
        assert blocks[0].origin == blocks[1].origin == "J"

    def test_all_rules(self):
        m = model(
            factor("A", AlbertForm.REAL_SPLIT, m=2, n=3),
            factor("B", AlbertForm.COMPLEX_SPLIT, m=1, n=2),
            factor("C", AlbertForm.QUATERNION_SPLIT, m=2, n=1),
            factor("D", AlbertForm.MAT2_REAL, m=1, n=2),
            factor("E", AlbertForm.MAT2_COMPLEX, m=2, n=1),
        )
        blocks = endo_real_decomposition(m).blocks
        assert [(b.kind, b.size, b.origin) for b in blocks] == [
            (R, 3, "A"),
            (R, 3, "A"),
            (C, 2, "B"),
            (H, 1, "C"),
            (H, 1, "C"),
            (R, 4, "D"),
            (C, 2, "E"),
            (C, 2, "E"),
        ]

    def test_model_validation(self):
        with pytest.raises(InvalidInput):
            model()
        with pytest.raises(InvalidInput):
            model(factor("X", AlbertForm.REAL_SPLIT), factor("X", AlbertForm.REAL_SPLIT))


class TestPicardNumber:
    def test_fixed_values(self):
        assert picard_number(E1_X_E2) == 2
        assert picard_number(E_SQUARED) == 3
        assert picard_number(CM_SQUARED) == 4
        assert picard_number(model(factor("S", AlbertForm.QUATERNION_SPLIT, n=2))) == 6

    def test_bookkeeping_random(self):
        rng = random.Random(73)
        for _ in range(60):
            m = random_model(rng)
            baseses = rosati_fixed_basis(endo_real_decomposition(m))
            assert picard_number(m) == sum(len(b) for b in baseses)


class TestAmpleCone:
    def test_examples(self):
        assert ample_cone(E1_X_E2) == ConeSpec([PDBlock(R, 1), PDBlock(R, 1)])
        assert ample_cone(E_SQUARED) == ConeSpec([PDBlock(R, 2)])
        ss = model(factor("S", AlbertForm.QUATERNION_SPLIT))
        spec = ample_cone(ss)
        assert spec == ConeSpec([PDBlock(H, 1)])
        assert spec.dimension == 1


class TestRosatiBasis:
    def test_counts(self):
        decomp = endo_real_decomposition(E_SQUARED)
        (basis,) = rosati_fixed_basis(decomp)
        assert len(basis) == 3

        decomp = endo_real_decomposition(model(factor("E", AlbertForm.COMPLEX_SPLIT)))
        (basis,) = rosati_fixed_basis(decomp)
        assert len(basis) == 1

        decomp = endo_real_decomposition(
            model(factor("S", AlbertForm.QUATERNION_SPLIT, n=2))
        )
        (basis,) = rosati_fixed_basis(decomp)
        assert len(basis) == 6


class TestAutAction:
    def test_examples(self):
        decomp = endo_real_decomposition(E_SQUARED)
        eye = HermitianMatrix.identity(R, 2)
        assert aut_action(decomp, [AlgebraMatrix.identity(R, 2)], [eye]) == [eye]

        shear = AlgebraMatrix(R, [[1, 1], [0, 1]])
        assert aut_action(decomp, [shear], [eye]) == [
            HermitianMatrix(R, [[1, 1], [1, 2]])
        ]

        decomp = endo_real_decomposition(E1_X_E2)
        ms = [AlgebraMatrix(R, [[2]]), AlgebraMatrix(R, [[3]])]
        ds = [HermitianMatrix(R, [[1]]), HermitianMatrix(R, [[1]])]
        assert aut_action(decomp, ms, ds) == [
            HermitianMatrix(R, [[4]]),
            HermitianMatrix(R, [[9]]),
        ]

    def test_shape_mismatch(self):
        decomp = endo_real_decomposition(E1_X_E2)
        with pytest.raises(ShapeMismatch):
            aut_action(decomp, [AlgebraMatrix.identity(R, 1)], [])

    def test_preserves_ample_cone(self):
        rng = random.Random(79)
        for _ in range(30):
            m = random_model(rng, max_factors=3)
            decomp = endo_real_decomposition(m)
            spec = ample_cone(m)
            ms = [random_invertible_matrix(rng, b.kind, b.size) for b in decomp.blocks]
            ds = [random_pd_matrix(rng, b.kind, b.size) for b in decomp.blocks]
            assert cone_member(spec, ds)
            assert cone_member(spec, aut_action(decomp, ms, ds))


class TestSurface:
    def test_rational_cases(self):
        data = surface_nef_data(1, 1)
        assert data.rational_polyhedral
        assert data.rays == ((1, 1), (1, -1))

        data = surface_nef_data(4, 1)
        assert data.rational_polyhedral
        assert data.rays == ((1, 2), (1, -2))
        for ray in data.rays:
            assert data.a * ray[0] ** 2 - data.b * ray[1] ** 2 == 0
            assert ray[0] > 0

    def test_irrational_cases(self):
        data = surface_nef_data(1, 2)
        assert not data.rational_polyhedral
        plus, minus = data.rays
        assert plus == QuadIrrational(2, 0, Fraction(1, 2))  # sqrt(1/2)
        assert minus == -plus
        # the symbolic coefficient squares to a/b exactly
        assert plus * plus == Fraction(1, 2)

        data = surface_nef_data(Fraction(8), Fraction(3))
        plus, _ = data.rays
        assert plus * plus == Fraction(8, 3)

    def test_dichotomy_matches_square_test(self):
        rng = random.Random(83)
        for _ in range(80):
            a = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            b = Fraction(rng.randint(1, 30), rng.randint(1, 10))
            data = surface_nef_data(a, b)
            from amplecones import is_square_rational

            assert data.rational_polyhedral == is_square_rational(a / b)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            surface_nef_data(0, 1)
        with pytest.raises(InvalidInput):
            surface_nef_data(1, Fraction(-2))


class TestBauer:
    def test_examples(self):
        assert bauer_rational_polyhedral(E1_X_E2)
        assert not bauer_rational_polyhedral(E_SQUARED)
        assert not bauer_rational_polyhedral(REAL_MULT)

    def test_structural_equivalence_random(self):
        rng = random.Random(89)
        for _ in range(80):
            m = random_model(rng)
            verdict = bauer_rational_polyhedral(m)
            blocks = endo_real_decomposition(m).blocks
            orthant = all(b.dimension == 1 for b in ample_cone(m).blocks)
            origins_distinct = len({b.origin for b in blocks}) == len(blocks)
            assert verdict == (orthant and origins_distinct)

    def test_every_small_model_against_the_factor_rule(self):
        # the real dimension of the self-adjoint part of one simple summand
        # of each form: Herm_1 over R, C, H, then Herm_2(R) and Herm_2(C)
        summand_dimension = {
            AlbertForm.REAL_SPLIT: 1,
            AlbertForm.COMPLEX_SPLIT: 1,
            AlbertForm.QUATERNION_SPLIT: 1,
            AlbertForm.MAT2_REAL: 3,
            AlbertForm.MAT2_COMPLEX: 4,
        }
        assert set(summand_dimension) == set(AlbertForm)
        choices = [(form, m, n) for form in AlbertForm for m in (1, 2) for n in (1, 2)]
        models = [(c,) for c in choices] + [(c, e) for c in choices for e in choices]
        verdicts = set()
        for chosen in models:
            factors = [factor(f"X{i}", form, m, n) for i, (form, m, n) in enumerate(chosen)]
            expected = all(n == 1 and m * summand_dimension[form] == 1 for form, m, n in chosen)
            assert bauer_rational_polyhedral(model(*factors)) == expected, chosen
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestRealMultFundamentalDomain:
    def test_d2(self):
        pi, action = real_mult_fundamental_domain(2, (1, 0))
        assert action.generator_json() == [[3, 4], [2, 3]]
        assert pi.rays == ((1, 0), (3, 2))

    def test_d3(self):
        pi, action = real_mult_fundamental_domain(3, (1, 0))
        assert action.generator_json() == [[7, 12], [4, 7]]
        assert pi.rays == ((1, 0), (7, 4))

    def test_not_in_cone(self):
        with pytest.raises(NotInCone):
            real_mult_fundamental_domain(2, (1, 1))

    def test_form_preservation_and_determinant(self):
        for d in (2, 3, 5, 6, 7, 10, 11, 13):
            pi, action = real_mult_fundamental_domain(d, (1, 0))
            (a, b), (c, e) = action.generator
            # g^T diag(1, -d) g == diag(1, -d), det g == 1
            assert a * a - d * c * c == 1
            assert a * b - d * c * e == 0
            assert b * b - d * e * e == -d
            assert a * e - b * c == 1
            # the image ray g(R) lands back inside the open cone
            assert action.open_member(pi.rays[1])

    def test_other_starting_rays(self):
        pi, action = real_mult_fundamental_domain(2, (3, -2))
        assert pi.rays[0] == (3, -2)
        report = verify_fundamental_domain(pi, action, samples=100, max_word=12, seed=0)
        assert report.covering_ok and report.disjoint_ok

    def test_trusted_builds_equal_validated_builds(self):
        # the unit, the squared unit's action and the domain cone are built
        # without the public constructors' checks: all pass them and hold
        # what those constructors store.  Listing pi's rays high then
        # low leaves the verification report unchanged; that is checked at
        # three rays for d <= 1000 and the large d only, since in between
        # the sampler draws 30 to 100 points per accepted sample
        def slots(record):
            return [repr(getattr(record, name)) for name in type(record).__slots__]

        def incidence(cone):
            # each normal with the rays tight on it, read off the masks
            return {
                n: {r for r, m in zip(cone.rays, cone._masks) if m >> i & 1}
                for i, n in enumerate(cone._normals)
            }

        rng = random.Random(34)
        for d in unit_radicands():
            u = fundamental_unit(d)
            validated = UnitElement(u.value, u.norm)
            assert u == validated and slots(u) == slots(validated), d
            root = math.isqrt(d)
            rays = [(1, 0), (root + rng.randint(1, 9), 1), (root + rng.randint(1, 9), -1)]
            if d > 1000 and d not in LARGE_RADICANDS:
                rays = [rng.choice(rays)]
            for ray in rays:
                pi, action = real_mult_fundamental_domain(d, ray)
                assert slots(action) == slots(GroupAction2D(action.generator, 1, d)), d
                # the cone is written in closed form, with what the
                # constructor derives, up to the order of the normals
                validated = PolyhedralCone(2, pi.rays)
                assert pi.rays == validated.rays, d
                assert incidence(pi) == incidence(validated), d
                low, high = pi.rays
                assert action.ray_image(low, 1) == high
                if len(rays) == 1:
                    continue
                seed = rng.randrange(2**31)
                report = verify_fundamental_domain(pi, action, samples=4, seed=seed)
                flipped = PolyhedralCone(2, [high, low])
                assert verify_fundamental_domain(flipped, action, samples=4, seed=seed) == report
                assert report.ok, d

    def test_input_validation(self):
        with pytest.raises(PerfectSquareInput):
            real_mult_fundamental_domain(4, (1, 0))
        with pytest.raises(InvalidInput):
            real_mult_fundamental_domain(12, (1, 0))


class TestDirichletData:
    def test_examples(self):
        assert dirichlet_data(2) == (2, 0, 1)
        assert dirichlet_data(3) == (2, 0, 1)
        with pytest.raises(PerfectSquareInput):
            dirichlet_data(9)

    def test_builds_no_unit(self, monkeypatch):
        # the fundamental unit of d = 10000000019 has about 212,000 bits;
        # the signature needs only a valid d
        def fail(d):
            raise AssertionError("dirichlet_data built a unit")

        monkeypatch.setattr(abelian, "fundamental_unit", fail)
        monkeypatch.setattr(scalars, "fundamental_unit", fail)
        assert dirichlet_data(10000000019) == (2, 0, 1)
        for d, error in ((9, PerfectSquareInput), (12, InvalidInput), (1, InvalidInput)):
            with pytest.raises(error):
                dirichlet_data(d)


class TestModelJson:
    def test_roundtrip(self):
        m = model(
            factor("A", AlbertForm.MAT2_COMPLEX, m=2, n=3),
            factor("B", AlbertForm.QUATERNION_SPLIT),
        )
        assert model_from_json_dict(model_to_json_dict(m)) == m

    def test_validation_errors(self):
        with pytest.raises(InvalidInput):
            model_from_json_dict({})
        with pytest.raises(InvalidInput):
            model_from_json_dict({"factors": []})
        with pytest.raises(InvalidInput):
            model_from_json_dict(
                {"factors": [{"id": "A", "albert": {"form": "Octonion", "m": 1}, "n": 1}]}
            )
        with pytest.raises(InvalidInput):
            model_from_json_dict({"factors": [{"id": "A", "n": 1}]})
        with pytest.raises(InvalidInput):
            model_from_json_dict(
                {
                    "factors": [
                        {"id": "A", "albert": {"form": "RealSplit", "m": 1}, "n": 1},
                        {"id": "A", "albert": {"form": "RealSplit", "m": 1}, "n": 1},
                    ]
                }
            )
