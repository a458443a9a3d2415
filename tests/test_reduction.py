import collections
import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amplecones import (
    DomainReport,
    GroupAction2D,
    IntegralForm,
    InvalidInput,
    NotFundamental,
    NotInCone,
    NotPositiveDefinite,
    PolyhedralCone,
    PreconditionViolated,
    ShapeMismatch,
    UnimodularMatrix,
    minkowski_reduce,
    poly_member,
    primitive_vector,
    real_mult_fundamental_domain,
    translate_locate,
    verify_fundamental_domain,
)
from amplecones import reduction
from amplecones.reduction import _simplest_between, _translates
from support import (
    form_lex_key,
    random_pd_form,
    reference_generator_check,
    reference_translate_locate,
    reference_verify,
    simplest_slope,
    sl2z_word_minimum,
)


def as_triple(form: IntegralForm):
    return (form.g11, form.g12, form.g22)


def determinant(form: IntegralForm) -> int:
    return form.g11 * form.g22 - form.g12 * form.g12


class TestIntegralForm:
    def test_invariant(self):
        with pytest.raises(NotPositiveDefinite):
            IntegralForm(1, 2, 1)
        with pytest.raises(NotPositiveDefinite):
            IntegralForm(0, 0, 1)
        with pytest.raises(NotPositiveDefinite):
            IntegralForm(-1, 0, -1)

    def test_unimodular_validation(self):
        with pytest.raises(InvalidInput):
            UnimodularMatrix(1, 0, 0, -1)
        with pytest.raises(InvalidInput):
            UnimodularMatrix(2, 0, 0, 1)


class TestMinkowskiReduce:
    def test_examples(self):
        gred, u = minkowski_reduce(IntegralForm(1, 0, 1))
        assert as_triple(gred) == (1, 0, 1)
        assert u == UnimodularMatrix.identity()

        gred, u = minkowski_reduce(IntegralForm(5, 4, 5))
        assert as_triple(gred) == (2, 1, 5)
        assert u.rows() == [[-1, -1], [1, 0]]

        gred, u = minkowski_reduce(IntegralForm(1, 3, 10))
        assert as_triple(gred) == (1, 0, 1)
        assert u.rows() == [[1, -3], [0, 1]]

    def test_recomposition_and_inequalities(self):
        rng = random.Random(61)
        for _ in range(120):
            form = IntegralForm(*random_pd_form(rng))
            gred, u = minkowski_reduce(form)
            assert form.transformed(u) == gred
            assert 0 <= 2 * abs(gred.g12) <= gred.g11 <= gred.g22
            if 2 * abs(gred.g12) == gred.g11 or gred.g11 == gred.g22:
                assert gred.g12 >= 0
            assert determinant(gred) == determinant(form)

    def test_against_word_oracle(self):
        rng = random.Random(67)
        for _ in range(60):
            triple = random_pd_form(rng, span=30)
            gred, _ = minkowski_reduce(IntegralForm(*triple))
            oracle = sl2z_word_minimum(triple, max_length=6)
            ours = as_triple(gred)
            # the oracle may only miss the optimum when its word bound is
            # too small; it must never beat the reduction
            assert form_lex_key(oracle) >= form_lex_key(ours)
            if form_lex_key(ours) < form_lex_key(oracle):
                print(f"note: word bound too small for {triple}: {ours} < {oracle}")


def d2_setup():
    pi = PolyhedralCone(2, [(1, 0), (3, 2)])
    action = GroupAction2D([[3, 4], [2, 3]], 1, 2)
    return pi, action


_RATIONAL = st.fractions(min_value=-12, max_value=12, max_denominator=9)
_POSITIVE = st.fractions(min_value=Fraction(1, 9), max_value=12, max_denominator=9)


@st.composite
def _generator_cases(draw):
    """(generator, a, b): random rational matrices, and generators that
    preserve a*x1^2 - b*x2^2 up to the scalar t^2 - a*b*u^2 (of either
    sign, or positive for t = 1 + a*b*u^2), with or without a reflection,
    rescaled by a nonzero rational c, or with a zero row; (a, b) is then
    rescaled by a positive s."""
    a, b, s = draw(_POSITIVE), draw(_POSITIVE), draw(_POSITIVE)
    u = draw(_RATIONAL)
    t = 1 + a * b * u * u if draw(st.booleans()) else draw(_RATIONAL)
    c = draw(_RATIONAL.filter(bool))
    shape = draw(st.sampled_from(["random", "automorph", "reflection", "zero-row"]))
    if shape == "random":
        generator = [[draw(_RATIONAL), draw(_RATIONAL)], [draw(_RATIONAL), draw(_RATIONAL)]]
    elif shape == "automorph":
        generator = [[c * t, c * b * u], [c * a * u, c * t]]
    elif shape == "reflection":  # the automorph times diag(1, -1): det = -c^2 (t^2 - a*b*u^2)
        generator = [[c * t, -c * b * u], [c * a * u, -c * t]]
    else:
        generator = [[t, u], [0, 0]] if c > 0 else [[0, 0], [t, u]]
    return generator, a * s, b * s


class TestGroupAction2D:
    def test_validation(self):
        GroupAction2D([[3, 4], [2, 3]], 1, 2)  # fine
        with pytest.raises(InvalidInput):
            GroupAction2D([[1, 1], [0, 1]], 1, 2)  # does not preserve the form
        with pytest.raises(InvalidInput):
            GroupAction2D([[-3, -4], [-2, -3]], 1, 2)  # swaps the sheets
        with pytest.raises(InvalidInput):
            GroupAction2D([[3, 4], [2, 3]], 1, -2)
        with pytest.raises(InvalidInput, match="det < 0"):
            # preserves the form and the sheet, but reflects rays
            GroupAction2D([[3, -4], [2, -3]], 1, 2)

    def test_ray_image(self):
        _, action = d2_setup()
        assert action.ray_image((1, 0)) == (3, 2)
        assert action.ray_image((3, 2), -1) == (1, 0)
        assert action.ray_image((2, 0), 1) == (3, 2)
        assert action.ray_image((1, 0), 2) == (17, 12)

    def test_membership_predicate(self):
        action = GroupAction2D([[3, 4], [2, 3]], 1, 2)
        assert action.open_member((1, 0))
        assert action.open_member((3, 2))  # 9 - 8 > 0
        assert not action.open_member((1, 1))
        assert not action.open_member((-1, 0))

    def test_scaled_form_accepted(self):
        # preserving the form only up to a positive scalar is allowed
        action = GroupAction2D([[2, 0], [0, 2]], 1, 2)
        assert action.ray_image((1, 0)) == (1, 0)

    def test_rational_generator_entries(self):
        # a positive rational multiple of g induces the same action on rays
        half_g = [[Fraction(3, 2), 2], [1, Fraction(3, 2)]]
        action = GroupAction2D(half_g, 1, 2)
        assert action.ray_image((1, 0), 1) == (3, 2)
        assert action.ray_image((1, 0), -1) == (3, -2)
        pi = PolyhedralCone(2, [(1, 0), (3, 2)])
        assert translate_locate((17, 12), pi, action) == 2

    @settings(max_examples=300, deadline=None)
    @given(_generator_cases())
    @example(case=([[Fraction(3, 2), 2], [1, Fraction(3, 2)]], 1, 2))  # rescaled by 1/2
    @example(case=([[-3, -4], [-2, -3]], 1, 2))  # rescaled by -1: swaps the sheets
    @example(case=([[Fraction(-3, 7), Fraction(-4, 7)], [Fraction(-2, 7), Fraction(-3, 7)]], 1, 2))
    @example(case=([[3, -4], [2, -3]], 1, 2))  # det < 0
    @example(case=([[3, 4], [2, 3]], 3, 6))  # (a, b) rescaled by 3
    @example(case=([[5, 6], [Fraction(8, 3), 5]], Fraction(1, 2), Fraction(9, 8)))
    @example(case=([[2, 0], [0, 2]], 1, 2))  # the scalar action
    @example(case=([[1, 1], [0, 1]], 1, 2))  # does not preserve the form
    @example(case=([[7, 1], [5, 5]], 1, 1))  # q11 = -q22 > 0, but q12 != 0
    @example(case=([[0, 0], [2, 3]], 1, 2))  # zero rows
    @example(case=([[3, 4], [0, 0]], 1, 2))
    @example(case=([[0, 0], [0, 0]], 1, 2))
    def test_integer_check_agrees_with_the_fraction_check(self, case):
        # every check reads a positive integer multiple of g and of (a, b);
        # the reference reads the Fractions as given
        generator, a, b = case
        expected = reference_generator_check(generator, a, b)
        if isinstance(expected, str):
            with pytest.raises(InvalidInput) as caught:
                GroupAction2D(generator, a, b)
            assert str(caught.value) == expected
        else:
            action = GroupAction2D(generator, a, b)
            assert (action._fwd, action._bwd, action._form) == expected
            assert action.generator == tuple(tuple(map(Fraction, row)) for row in generator)


NAN = float("nan")


BAD_PLANAR_INPUT = {
    "text-rows": lambda pi, g: GroupAction2D(["34", "23"], 1, 2),
    "text-generator": lambda pi, g: GroupAction2D("3423", 1, 2),
    "nan-entry": lambda pi, g: GroupAction2D([[3, 4], [2, NAN]], 1, 2),
    "none-entry": lambda pi, g: GroupAction2D([[3, 4], [None, 3]], 1, 2),
    "nan-a": lambda pi, g: GroupAction2D([[3, 4], [2, 3]], NAN, 2),
    "none-b": lambda pi, g: GroupAction2D([[3, 4], [2, 3]], 1, None),
    "locate-text": lambda pi, g: translate_locate("10", pi, g),
    "locate-nan": lambda pi, g: translate_locate((NAN, 0), pi, g),
    "locate-none": lambda pi, g: translate_locate((1, None), pi, g),
    "open-text": lambda pi, g: g.open_member("10"),
    "open-nan": lambda pi, g: g.open_member((NAN, 0)),
    "open-none": lambda pi, g: g.open_member((None, 0)),
    "closed-text": lambda pi, g: g.closed_member("10"),
    "closed-nan": lambda pi, g: g.closed_member((1, NAN)),
    "closed-none": lambda pi, g: g.closed_member((1, None)),
    "domain-nan": lambda pi, g: real_mult_fundamental_domain(2, (NAN, 0)),
}


@pytest.mark.parametrize("call", BAD_PLANAR_INPUT.values(), ids=BAD_PLANAR_INPUT)
def test_planar_input_must_be_finite_rational_coordinates(call):
    # text is not read one character per coordinate, and NaN or None is
    # reported like any other invalid coordinate
    pi, g = d2_setup()
    with pytest.raises(InvalidInput):
        call(pi, g)


def test_planar_coordinates_given_as_text_still_parse():
    pi, g = d2_setup()
    assert GroupAction2D([["3", 4], [2, "3"]], "1", 2) == g
    assert g.open_member(("1/2", 0)) and not g.closed_member(("-1/2", 0))
    assert translate_locate(("17/2", 6), pi, g) == 2


class TestTranslateLocate:
    def test_examples(self):
        pi, action = d2_setup()
        assert translate_locate((1, 0), pi, action) == 0
        assert translate_locate((17, 12), pi, action) == 2
        assert translate_locate((1, Fraction(-1, 2)), pi, action) == -1

    def test_shared_ray_goes_to_upper_cell(self):
        # (3, 2) sits on the common boundary of pi and g(pi); the half-open
        # convention assigns it upward, which is what makes locating
        # commute with the action
        pi, action = d2_setup()
        assert translate_locate((3, 2), pi, action) == 1

    def test_not_in_cone(self):
        pi, action = d2_setup()
        with pytest.raises(NotInCone):
            translate_locate((1, 1), pi, action)
        with pytest.raises(NotInCone):
            translate_locate((-1, 0), pi, action)

    def test_boundary_point_is_not_in_cone(self):
        # b/a = 9/4 puts rational points on the boundary slope 2/3; the
        # integer test A*x^2 > B*y^2 must reject them like open_member
        a, b = Fraction(1, 2), Fraction(9, 8)
        action = GroupAction2D([[5, 6], [Fraction(8, 3), 5]], a, b)
        pi = PolyhedralCone(2, [(1, 0), action.ray_image((1, 0))])
        for p in ((3, 2), (Fraction(3, 2), 1), (3, -2)):
            assert a * p[0] * p[0] - b * p[1] * p[1] == 0
            with pytest.raises(NotInCone, match=r"outside the open cone"):
                translate_locate(p, pi, action)
        assert translate_locate((2, 1), pi, action) == 0

    def test_closed_member_matches_form_value(self):
        # the integer direction must give the rational verdict on the
        # boundary slope 2/3 of b/a = 9/4, on the axis x = 0 and for x < 0
        boundary = GroupAction2D([[5, 6], [Fraction(8, 3), 5]], Fraction(1, 2), Fraction(9, 8))
        rng = random.Random(97)
        points = [
            (3, 2), (Fraction(3, 2), 1), (3, -2), (0, 0), (0, 1), (0, -1),
            (-1, 0), (-3, 2), (Fraction(-1, 2), Fraction(1, 3)),
        ] + [
            (Fraction(rng.randint(-30, 30), rng.randint(1, 9)),
             Fraction(rng.randint(-30, 30), rng.randint(1, 9)))
            for _ in range(200)
        ]
        for action in (boundary, d2_setup()[1]):
            verdicts = set()
            for p in points:
                want = p[0] >= 0 and action.a * p[0] * p[0] - action.b * p[1] * p[1] >= 0
                assert action.closed_member(p) == want, p
                verdicts.add(want)
            assert verdicts == {True, False}

    def test_bound_exhaustion(self):
        pi, action = d2_setup()
        far = action.ray_image((3, 1), 9)  # the direction of (1, 1/3)
        with pytest.raises(NotFundamental):
            translate_locate(far, pi, action, max_word=4)

    def test_error_messages_print_rationals_as_p_over_q(self):
        pi, action = d2_setup()
        messages = []
        for call, error in [
            (lambda: translate_locate((Fraction(1, 2), 3), pi, action), NotInCone),
            (lambda: translate_locate((Fraction(3, 2), Fraction(-1, 2)), pi, action, max_word=0),
             NotFundamental),
            (lambda: PolyhedralCone(2, [(Fraction(1, 2), 1, 0)]), ShapeMismatch),
            (lambda: poly_member(pi, (Fraction(1, 2),)), ShapeMismatch),
        ]:
            with pytest.raises(error) as caught:
                call()
            messages.append(str(caught.value))
        assert all("Fraction(" not in m and "1/2" in m for m in messages), messages

    def test_error_message_for_point_past_int_string_limit(self):
        # 10**5000 has more digits than str() accepts under the default limit
        x = 10**5000
        p = (x, math.isqrt(x * x // 2) - 1)
        with pytest.raises(NotFundamental) as caught:
            translate_locate(p, *real_mult_fundamental_domain(2, (1, 0)), max_word=12)
        message = str(caught.value)
        assert f"<{x.bit_length()}-bit integer>" in message
        assert "set_int_max_str_digits" not in message

    def test_consistency_and_equivariance(self):
        pi, action = d2_setup()
        rng = random.Random(71)
        checked = 0
        while checked < 60:
            p = (Fraction(rng.randint(1, 40), rng.randint(1, 9)),
                 Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
            if not action.open_member(p):
                continue
            checked += 1
            k = translate_locate(p, pi, action)
            back = action.ray_image(p, -k)
            assert poly_member(pi, back)
            if poly_member(pi, back, interior=True):
                for off in (1, -1):
                    assert not poly_member(
                        pi, action.ray_image(p, -(k + off)), interior=True
                    )
            for j in (-3, -1, 1, 3):
                shifted = action.ray_image(p, j)
                assert translate_locate(shifted, pi, action) == k + j


class TestVerifyFundamentalDomain:
    def test_d2_domain_passes(self):
        pi, action = d2_setup()
        report = verify_fundamental_domain(pi, action, samples=200, max_word=12, seed=0)
        assert report.covering_ok and report.disjoint_ok
        assert report.witnesses == ()
        assert report.words_used <= 12

    def test_single_ray_fails_covering(self):
        _, action = d2_setup()
        ray = PolyhedralCone(2, [(1, 0)])
        report = verify_fundamental_domain(ray, action, samples=40, max_word=6, seed=1)
        assert not report.covering_ok
        assert report.disjoint_ok  # a ray has no interior to overlap
        assert any(w["kind"] == "uncovered" for w in report.witnesses)

    def test_squared_generator_leaves_gaps(self):
        pi, _ = d2_setup()
        doubled = GroupAction2D([[17, 24], [12, 17]], 1, 2)
        report = verify_fundamental_domain(pi, doubled, samples=300, max_word=12, seed=0)
        assert not report.covering_ok
        assert report.disjoint_ok

    def test_too_wide_cone_fails_disjointness(self):
        wide = PolyhedralCone(2, [(1, 0), (17, 12)])  # spans two tiles
        _, action = d2_setup()
        report = verify_fundamental_domain(wide, action, samples=50, max_word=6, seed=0)
        assert report.covering_ok
        assert not report.disjoint_ok
        overlaps = [w for w in report.witnesses if w["kind"] == "overlap"]
        assert overlaps and all(abs(w["k"]) >= 1 for w in overlaps)

    def test_precondition(self):
        _, action = d2_setup()
        outside = PolyhedralCone(2, [(1, 0), (1, 1)])
        with pytest.raises(PreconditionViolated):
            verify_fundamental_domain(outside, action, samples=10, max_word=4, seed=0)

    def test_deterministic_and_json_roundtrip(self):
        pi, action = d2_setup()
        first = verify_fundamental_domain(pi, action, samples=80, max_word=12, seed=5)
        second = verify_fundamental_domain(pi, action, samples=80, max_word=12, seed=5)
        assert first.to_json_dict() == second.to_json_dict()
        payload = first.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_report_invariant(self):
        with pytest.raises(InvalidInput):
            DomainReport(covering_ok=False, disjoint_ok=True, witnesses=())

    def test_gap_between_translates_is_an_exact_witness(self):
        # g(1, 0) = (3, 2) lies above the upper ray, so no sample finds the
        # gap, but the table does
        _, action = d2_setup()
        narrow = PolyhedralCone(2, [(1, 0), (3000001, 2000000)])
        report = verify_fundamental_domain(narrow, action, samples=200, max_word=12, seed=0)
        assert not report.covering_ok and report.disjoint_ok
        assert report.witnesses == ({"kind": "uncovered", "point": [1500002, 1000001]},)
        # under the inverse generator the gap faces the lower ray:
        # g^(-1)(3000001, 2000000) = (1000003, -2)
        inverse = GroupAction2D([[3, -4], [-2, 3]], 1, 2)
        report = verify_fundamental_domain(narrow, inverse, samples=200, max_word=12, seed=0)
        assert report.witnesses == ({"kind": "uncovered", "point": [500002, -1]},)

    def test_gap_witness_is_the_simplest_slope(self):
        rng = random.Random(173)
        for _ in range(400):
            while True:
                u = (rng.randint(1, 30), rng.randint(-40, 40))
                v = (rng.randint(1, 30), rng.randint(-40, 40))
                if u[0] * v[1] - u[1] * v[0] > 0:
                    break
            low, high = Fraction(u[1], u[0]), Fraction(v[1], v[0])
            # the least denominator with a numerator strictly inside, and
            # there the numerator nearest zero
            q = next(q for q in itertools.count(1) if math.floor(low * q) + 1 < high * q)
            p = min(range(math.floor(low * q) + 1, math.ceil(high * q)), key=abs)
            assert _simplest_between(u, v) == simplest_slope(low, high) == [q, p]
        # huge endpoints far apart give a small witness
        assert _simplest_between((1, 0), (3, 2)) == [2, 1]
        assert _simplest_between((10**5000, 1), (10**4000 + 1, 10**4000 - 1)) == [2, 1]

    def test_samples_in_draw_order(self):
        # every sample off the ray (1, 0) is an uncovered witness, so the
        # report lists the seeded points in the order they were drawn; the
        # literal pins the sample stream of seed 0
        _, action = d2_setup()
        ray = PolyhedralCone(2, [(1, 0)])
        report = verify_fundamental_domain(ray, action, samples=8, max_word=12, seed=0)
        assert report.to_json_dict() == {
            "covering_ok": False,
            "disjoint_ok": True,
            "witnesses": [
                {"kind": "uncovered", "point": [2, 1]},  # the gap below g(1, 0)
                {"kind": "uncovered", "point": ["55/13", "37/14"]},
                {"kind": "uncovered", "point": ["13/5", "1/12"]},
                {"kind": "uncovered", "point": ["38/7", "4/5"]},
                {"kind": "uncovered", "point": ["40/9", "28/9"]},
                {"kind": "uncovered", "point": ["40/7", "5/8"]},
                {"kind": "uncovered", "point": ["52/5", "7/3"]},
                {"kind": "uncovered", "point": ["29/3", "-50/11"]},
            ],
            "words_used": 0,  # the eighth sample lies on the ray
        }

    # b/a = 1200^2 / t^2 exactly and one part in 10^6 either side, where the
    # reach cut of the sampler is tight; then b/a past 1200^2, where only
    # points on (1, 0) are accepted.  Largest t first: a reach one short
    # fails at t = 3, and from t = 1 on it accepts nothing and never returns
    @pytest.mark.parametrize("a, b", [
        (t * t * 10**6, 1440000 * (10**6 + shift))
        for t in (61, 60, 59, 7, 3, 2, 1) for shift in (-1, 0, 1)
    ] + [(1, 1440001)])
    def test_reach_cut_keeps_the_sample_stream(self, a, b):
        # under the identity every accepted sample off the ray (1, 0) is an
        # uncovered witness, so the report lists the accepted samples, and
        # reference_verify draws them with randint and no cut
        identity = GroupAction2D([[1, 0], [0, 1]], a, b)
        ray = PolyhedralCone(2, [(1, 0)])
        report = verify_fundamental_domain(ray, identity, samples=200, max_word=1, seed=a + b)
        assert report.to_json_dict() == _expected_report(ray, identity, 200, 1, a + b)

    def test_scalar_generator_overlaps_every_translate(self):
        pi, _ = d2_setup()
        report = verify_fundamental_domain(pi, GroupAction2D([[1, 0], [0, 1]], 1, 2),
                                           samples=20, max_word=3, seed=0)
        assert not report.covering_ok and not report.disjoint_ok
        overlaps = [w for w in report.witnesses if w["kind"] == "overlap"]
        assert [w["k"] for w in overlaps] == [1, -1, 2, -2, 3, -3]
        assert all(w["point"] == [2, 1] for w in overlaps)


SMALL_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30)
SHAPES = ("fundamental", "overlapping", "gapped", "reversed", "redundant", "single")


def _random_open_ray(rng, d):
    while True:
        ray = (rng.randint(1, 12), rng.randint(-4, 4))
        if ray[0] ** 2 > d * ray[1] ** 2:
            return ray


def _inverse_action(action):
    """The action of the inverse of a real-multiplication generator."""
    (p, dq), (q, _) = action.generator
    return GroupAction2D([[p, -dq], [-q, p]], 1, action.b)


def _random_candidate(rng, shape):
    """A candidate cone built from g^a R and g^b R, its action (the squared
    unit or its inverse) and a max_word."""
    d = rng.choice(SMALL_SQUAREFREE)
    ray = _random_open_ray(rng, d)
    _, action = real_mult_fundamental_domain(d, ray)
    if rng.random() < 0.5:
        action = _inverse_action(action)
    a = rng.randint(-2, 2)
    lo, hi = action.ray_image(ray, a), action.ray_image(ray, a + 1)
    middle = primitive_vector((lo[0] + hi[0], lo[1] + hi[1]))
    rays = {
        "fundamental": [lo, hi],
        "overlapping": [lo, action.ray_image(ray, a + 2)],
        "gapped": rng.choice([[lo, middle], [middle, hi]]),
        "reversed": [hi, lo],
        "redundant": rng.sample([lo, middle, hi], 3),
        "single": [lo],
    }[shape]
    return PolyhedralCone(2, rays), action, rng.choice((1, 2, 5, 12))


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compare the exception type and message
        return type(exc), str(exc)


def _gap_witness(pi, action):
    """The uncovered witness between pi and g(pi), from their slope
    intervals, or None when they touch or overlap."""
    slope = lambda r: Fraction(r[1], r[0])  # noqa: E731
    lo, hi = min(pi.rays, key=slope), max(pi.rays, key=slope)
    g_lo, g_hi = action.ray_image(lo), action.ray_image(hi)
    for a, b in ((hi, g_lo), (g_hi, lo)):
        if slope(b) > slope(a):
            return {"kind": "uncovered", "point": simplest_slope(slope(a), slope(b))}
    return None


def _expected_report(pi, action, samples, max_word, seed, locate=reference_translate_locate):
    """reference_verify's report, its samples located by ``locate``, with
    the exact gap witness first: the report of verify_fundamental_domain."""
    expected = reference_verify(pi, action, samples, max_word, seed, locate=locate)
    gap = _gap_witness(pi, action)
    if gap is not None:
        expected["covering_ok"] = False
        expected["witnesses"].insert(0, gap)
    return expected


class TestTranslateTable:
    """translate_locate and verify_fundamental_domain against the reference
    scan and double-description loop of tests/support.py; the only allowed
    difference is the exact gap witness."""

    def test_matches_reference_scan(self):
        rng = random.Random(2014)
        gaps = collections.Counter()
        for index in range(1020):
            shape = SHAPES[index % len(SHAPES)]
            pi, action, max_word = _random_candidate(rng, shape)
            d = action.b
            points = [
                _random_open_ray(rng, d),
                (Fraction(rng.randint(1, 40), rng.randint(1, 7)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 7))),
                action.ray_image(rng.choice(pi.rays), rng.randint(-3, 3)),
                (1, 1),
            ]
            for p in points:
                ours = _outcome(lambda: translate_locate(p, pi, action, max_word=max_word))
                theirs = _outcome(lambda: reference_translate_locate(p, pi, action, max_word))
                assert ours == theirs, (shape, pi, action.generator, max_word, p)
            seed = rng.randrange(1000)
            report = verify_fundamental_domain(pi, action, samples=4, max_word=max_word, seed=seed)
            expected = _expected_report(pi, action, 4, max_word, seed)
            if _gap_witness(pi, action) is not None:
                gaps[shape] += 1
            assert report.to_json_dict() == expected, (shape, pi, action.generator, max_word, seed)
        assert gaps == {"gapped": 170, "single": 170}


    @pytest.mark.parametrize("d,max_word", [(2, 12), (7, 12), (1000003, 3)])
    def test_matches_reference_verify_with_many_samples(self, d, max_word):
        # the reference scan is slow on the large units of d = 1000003,
        # hence its smaller max_word
        pi, action = real_mult_fundamental_domain(d, (1, 0))
        candidates = {
            "fundamental": pi,
            "overlapping": PolyhedralCone(2, [pi.rays[0], action.ray_image(pi.rays[1], 1)]),
            "single": PolyhedralCone(2, [pi.rays[0]]),
        }
        for shape, cand in candidates.items():
            for seed in range(5):
                report = verify_fundamental_domain(cand, action, samples=100, max_word=max_word, seed=seed)
                expected = _expected_report(cand, action, 100, max_word, seed)
                assert report.to_json_dict() == expected, (shape, seed)


    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_matches_reference_with_rational_boundary_rays(self, s):
        # on x^2 - s^2 y^2 the boundary rays (s, -1) and (s, 1) are rational
        # and fixed by every generator [[a, b s^2], [b, a]], so a candidate
        # through one of them has an end that no translate moves; b of
        # either sign moves the other end either way, and the identity
        # moves neither
        rng = random.Random(300 + s)
        d = s * s
        boundary = [(s, -1), (s, 1)]
        generators = [[[1, 0], [0, 1]]]
        for b in (1, -1, 2, -2):
            a = s * abs(b) + rng.randint(1, 3)
            generators.append([[a, b * d], [b, a]])
        seen = collections.Counter()
        for generator in generators:
            action = GroupAction2D(generator, 1, d)
            for _ in range(12):
                ray = action.ray_image(_random_open_ray(rng, d), rng.randint(-2, 2))
                rays = rng.choice([
                    [boundary[0], ray],
                    [ray, boundary[1]],
                    boundary,
                    [rng.choice(boundary)],
                ])
                pi = PolyhedralCone(2, rays)
                max_word = rng.choice((1, 2, 4, 7))
                points = [_random_open_ray(rng, d) for _ in range(3)]
                points.append(action.ray_image(ray, rng.randint(-3, 3)))
                for p in points:
                    ours = _outcome(lambda: translate_locate(p, pi, action, max_word=max_word))
                    theirs = _outcome(lambda: reference_translate_locate(p, pi, action, max_word))
                    assert ours == theirs, (generator, pi, max_word, p)
                    seen["missed" if isinstance(ours, tuple) else (ours > 0) - (ours < 0)] += 1
                seed = rng.randrange(1000)
                report = verify_fundamental_domain(pi, action, samples=6, max_word=max_word, seed=seed)
                expected = _expected_report(pi, action, 6, max_word, seed)
                assert report.to_json_dict() == expected, (generator, pi, max_word, seed)
        # points are located below, at and above k = 0, and some are missed
        assert set(seen) == {-1, 0, 1, "missed"}, seen

    @pytest.mark.parametrize("max_word", [1, 2, 5, 12])
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("w", [3, 4, 5])
    def test_matches_reference_on_wide_candidates(self, w, inverse, max_word):
        # cone{g^a R, g^(a+w) R} with both rays interior meets g^k of itself
        # exactly for |k| < w, so the disjointness scan must run past
        # step 1 and stop after step w; a centres the cone on R, which keeps
        # the reference scan quick on the large units of d = 1000003
        rng = random.Random(100 * w + 10 * inverse + max_word)
        a = -(w // 2)
        for d in SMALL_SQUAREFREE + (1000003,):
            ray = _random_open_ray(rng, d)
            _, action = real_mult_fundamental_domain(d, ray)
            if inverse:
                action = _inverse_action(action)
            pi = PolyhedralCone(2, [action.ray_image(ray, a), action.ray_image(ray, a + w)])
            seed = rng.randrange(1000)
            report = verify_fundamental_domain(pi, action, samples=4, max_word=max_word, seed=seed)
            expected = _expected_report(pi, action, 4, max_word, seed)
            assert report.to_json_dict() == expected, (d, pi, action.generator, max_word, seed)
            overlaps = [x["k"] for x in report.witnesses if x["kind"] == "overlap"]
            reach = min(w - 1, max_word)
            assert overlaps == [k for s in range(1, reach + 1) for k in (s, -s)], d


def _slope_range_cases(max_word):
    """(name, pi, action) over the shapes a sample can meet: R_j = g^j R,
    pi fundamental, shifted by max_word (samples below it lie past
    -max_word), overlapping, wide, a single ray and gapped, under g and
    g^-1; the scalar action; and, on x^2 - s^2 y^2, candidates through a
    boundary ray that every generator fixes."""
    for d in (2, 7, 13):
        _, forward = real_mult_fundamental_domain(d, (1, 0))
        for g, action in (("g", forward), ("g^-1", _inverse_action(forward))):
            R = {j: action.ray_image((1, 0), j) for j in range(-2, max_word + 2)}
            shapes = {
                "fundamental": [R[0], R[1]],
                "shifted": [R[max_word], R[max_word + 1]],
                "overlapping": [R[-1], R[1]],
                "wide": [R[-2], R[2]],
                "single": [R[1]],
                "gapped": [R[0], primitive_vector((R[0][0] + R[1][0], R[0][1] + R[1][1]))],
            }
            for shape, rays in shapes.items():
                yield f"d={d} {g} {shape}", PolyhedralCone(2, rays), action
    scalar = GroupAction2D([[1, 0], [0, 1]], 1, 2)
    for rays in ([(1, 0), (3, 2)], [(1, 0)], [(3, -2), (3, 2)]):
        yield f"scalar {rays}", PolyhedralCone(2, rays), scalar
    for s in (1, 2):
        low, high = (s, -1), (s, 1)
        for b in (1, -1):
            action = GroupAction2D([[s + 1, b * s * s], [b, s + 1]], 1, s * s)
            for rays in ([low, (3 * s, 1)], [(3 * s, 1), high], [low, high], [high]):
                yield f"s={s} b={b} {rays}", PolyhedralCone(2, rays), action


class TestLocatedSlopeRange:
    """verify_fundamental_domain locates only the samples that widen the
    slope range of the samples located so far (when pi and g(pi) leave no
    gap); its report must be the one that locating every sample with
    translate_locate gives."""

    @pytest.mark.parametrize("max_word", [1, 2, 3, 12])
    def test_matches_locating_every_sample(self, max_word):
        shifted = 0
        for index, (name, pi, action) in enumerate(_slope_range_cases(max_word)):
            seed = 1000 * max_word + index
            report = verify_fundamental_domain(pi, action, samples=300, max_word=max_word, seed=seed)
            expected = _expected_report(pi, action, 300, max_word, seed, locate=translate_locate)
            assert report.to_json_dict() == expected, (name, max_word, seed)
            if name.endswith("shifted"):
                # no gap, yet the samples past g^-max_word pi are
                # uncovered, while those in it are located at -max_word
                assert _gap_witness(pi, action) is None
                assert not report.covering_ok and report.words_used == max_word, name
                shifted += 1
        assert shifted == 6

    def test_locates_only_the_samples_that_widen_the_range(self, monkeypatch):
        calls = 0
        locate = reduction._locate

        def counting(p, table, max_word):
            nonlocal calls
            calls += 1
            return locate(p, table, max_word)

        monkeypatch.setattr(reduction, "_locate", counting)
        pi, action = d2_setup()
        report = verify_fundamental_domain(pi, action, samples=500, max_word=12, seed=0)
        assert report.ok and report.words_used == 2
        assert calls < 60, calls


def _power(m, k: int):
    """m^k for k >= 0 by repeated squaring."""
    result, base = ((1, 0), (0, 1)), m
    while k:
        if k & 1:
            result = _matmul(result, base)
        base, k = _matmul(base, base), k >> 1
    return result


def _matmul(m, n):
    return tuple(
        tuple(m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)) for i in range(2)
    )


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


class TestLazyTranslates:
    """The translate table builds row k on first read; its rows must be the
    eager products whatever order they are read in, and a verification of
    a fundamental domain must read only a few of them."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(SMALL_SQUAREFREE + (1000003,)),
        st.booleans(),
        st.permutations(range(-24, 25)),
        st.randoms(use_true_random=False),
    )
    def test_rows_are_eager_products_in_any_read_order(self, d, inverse, order, rng):
        ray = _random_open_ray(rng, d)
        _, action = real_mult_fundamental_domain(d, ray)
        if inverse:
            action = _inverse_action(action)
        pi = PolyhedralCone(2, [ray, action.ray_image(ray, rng.randint(1, 3))])
        rows = _translates(pi, action)[0]
        (low, high), read = rows[0], {0}
        for k in [9, 3, *order]:
            m = _power(action._fwd if k >= 0 else action._bwd, abs(k))
            assert rows[k] == (_apply(m, low), _apply(m, high)), (d, k)
            read.add(k)
            # rows are built only between k = 0 and the farthest row read
            assert set(rows) <= set(range(min(read), max(read) + 1))

    def test_domain_verification_builds_few_rows(self, monkeypatch):
        products = 0
        mat_vec = reduction._mat_vec

        def counting(m, v):
            nonlocal products
            products += 1
            return mat_vec(m, v)

        monkeypatch.setattr(reduction, "_mat_vec", counting)
        pi, action = real_mult_fundamental_domain(1000003, (1, 0))
        report = verify_fundamental_domain(pi, action, samples=100, max_word=64, seed=0)
        assert report.ok
        # building every row |k| <= 64 for both rays takes 258 products
        assert products <= 8


class TestRealMultIntegration:
    def test_d3_generator(self):
        pi, action = real_mult_fundamental_domain(3, (1, 0))
        assert action.generator_json() == [[7, 12], [4, 7]]
        assert pi.rays == ((1, 0), (7, 4))

    def test_verified_for_small_d(self):
        for d in (2, 3, 5, 10):
            pi, action = real_mult_fundamental_domain(d, (1, 0))
            report = verify_fundamental_domain(
                pi, action, samples=120, max_word=12, seed=0
            )
            assert report.covering_ok and report.disjoint_ok
