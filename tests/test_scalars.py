import copy
import hashlib
import math
import operator
import pickle
import random
from fractions import Fraction
from functools import lru_cache, partial

import pytest

from amplecones import (
    GaussianRational,
    InvalidInput,
    PerfectSquareInput,
    QuadIrrational,
    RationalQuaternion,
    UnitElement,
    continued_fraction_sqrt,
    dirichlet_rank,
    fundamental_unit,
    is_squarefree,
    is_totally_positive,
)
from amplecones.scalars import is_perfect_square, squarefree_part
from support import (
    pell_scan,
    ref_add,
    ref_conj,
    ref_embed,
    ref_inverse,
    ref_mul,
    ref_norm,
    ref_quad_mul,
    ref_sub,
    reference_fundamental_unit,
    scalar_state,
    unit_radicands,
)


def naive_squarefree_part(n: int) -> tuple[int, int]:
    """The largest s with s^2 | n, by scanning every candidate."""
    s = next(s for s in range(math.isqrt(n), 0, -1) if n % (s * s) == 0)
    return s, n // (s * s)


class TestSquarefreePart:
    def test_matches_naive_scan(self):
        for n in range(1, 20001):
            assert squarefree_part(n) == naive_squarefree_part(n), n
            assert is_squarefree(n) == (naive_squarefree_part(n)[0] == 1)

    def test_large_prime_cofactors(self):
        # the cofactor left by trial division up to the cube root is 1, p,
        # pq or p^2; primes above 10^6 reach it
        p, q = 1000003, 1000033
        assert squarefree_part(p * p) == (p, 1)
        assert squarefree_part(p * q) == (1, p * q)
        assert squarefree_part(2 * p * p) == (p, 2)
        assert squarefree_part(p * p * q) == (p, q)
        assert squarefree_part(4 * 9 * p * q) == (6, p * q)
        assert is_squarefree(p * q) and not is_squarefree(2 * p * p)

    def test_large_prime(self):
        assert squarefree_part(10**14 + 31) == (1, 10**14 + 31)
        assert is_squarefree(10**14 + 31)

    def test_small_and_negative(self):
        assert squarefree_part(0) == (1, 0)
        assert squarefree_part(1) == (1, 1)
        for n in (-1, -4, -12, -(10**14 + 31)):
            assert squarefree_part(n) == (1, n)
        assert not is_squarefree(0) and not is_squarefree(-3)

    def test_perfect_squares(self):
        assert [n for n in range(-50, 50) if is_perfect_square(n)] == [0, 1, 4, 9, 16, 25, 36, 49]
        for n in (-1, -4, -(10**40)):  # no negative number is a square
            assert not is_perfect_square(n)
        assert is_perfect_square(10**40) and not is_perfect_square(10**40 + 1)


class TestContinuedFraction:
    def test_examples(self):
        assert continued_fraction_sqrt(2) == (1, [2])
        assert continued_fraction_sqrt(3) == (1, [1, 2])
        assert continued_fraction_sqrt(7) == (2, [1, 1, 1, 4])

    def test_perfect_square_rejected(self):
        with pytest.raises(PerfectSquareInput):
            continued_fraction_sqrt(4)
        with pytest.raises(InvalidInput):
            continued_fraction_sqrt(1)

    def test_period_shape(self):
        # final term is 2*a0 and the rest is a palindrome
        for d in range(2, 80):
            if (d**0.5).is_integer():
                continue
            a0, period = continued_fraction_sqrt(d)
            assert period[-1] == 2 * a0
            body = period[:-1]
            assert body == body[::-1]

    def test_period_moebius_transform_fixes_surd(self):
        # the complete quotient x1 = (a0 + sqrt(d)) / (d - a0^2) is purely
        # periodic: applying one full period's Moebius transform fixes it
        for d in (2, 3, 5, 7, 13, 19, 31, 46):
            a0, period = continued_fraction_sqrt(d)
            A, B, C, D = 1, 0, 0, 1
            for q in period:
                A, B, C, D = A * q + B, A, C * q + D, C
            e = d - a0 * a0
            x1 = QuadIrrational(d, Fraction(a0, e), Fraction(1, e))
            # x1 = (A x1 + B) / (C x1 + D)  <=>  C x1^2 + (D - A) x1 - B = 0
            assert C * x1 * x1 + (D - A) * x1 - B == 0

    def test_convergents_alternate_around_sqrt(self):
        for d in (2, 3, 6, 11, 23):
            a0, period = continued_fraction_sqrt(d)
            terms = [a0] + period * 3
            h_prev, h = 1, terms[0]
            k_prev, k = 0, 1
            signs = [h * h - d * k * k]
            for q in terms[1:]:
                h, h_prev = q * h + h_prev, h
                k, k_prev = q * k + k_prev, k
                signs.append(h * h - d * k * k)
            for left, right in zip(signs, signs[1:]):
                assert left * right < 0


class TestFundamentalUnit:
    def test_examples(self):
        u = fundamental_unit(2)
        assert (u.value.a, u.value.b, u.norm) == (1, 1, -1)
        u = fundamental_unit(3)
        assert (u.value.a, u.value.b, u.norm) == (2, 1, 1)
        # unit of the order Z[sqrt(5)], not of the maximal order
        u = fundamental_unit(5)
        assert (u.value.a, u.value.b, u.norm) == (2, 1, -1)

    def test_input_validation(self):
        with pytest.raises(PerfectSquareInput):
            fundamental_unit(9)
        with pytest.raises(InvalidInput):
            fundamental_unit(8)

    def test_norm_and_minimality(self):
        for d in range(2, 60):
            if not is_squarefree(d):
                continue
            u = fundamental_unit(d)
            a, b = int(u.value.a), int(u.value.b)
            assert a > 0 and b > 0
            assert abs(a * a - d * b * b) == 1
            assert u.norm == a * a - d * b * b
            # nothing smaller exists: exhaustive scan below b
            smaller = pell_scan(d, b - 1)
            assert smaller is None

    def test_matches_brute_force(self):
        for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15):
            u = fundamental_unit(d)
            assert pell_scan(d, 10**4) == (u.value.a, u.value.b, u.norm)

    def test_checks_d_once_and_keeps_every_unit(self, monkeypatch):
        # the squarefree trial division runs once per call, and the unit
        # built without the public constructor's check has its state; the
        # digest pins (d, a, b, norm) for every squarefree d <= 3000
        from amplecones import scalars

        calls = []
        original = scalars.squarefree_part
        monkeypatch.setattr(
            scalars, "squarefree_part", lambda n: calls.append(n) or original(n)
        )
        digest = hashlib.sha256()
        radicands = [d for d in range(2, 3001) if naive_squarefree_part(d)[0] == 1]
        for d in radicands:
            del calls[:]
            u = fundamental_unit(d)
            assert calls == [d]
            a, b = u.value.a, u.value.b
            assert u.value.d == d
            assert scalar_state(u.value) == scalar_state(QuadIrrational(d, a, b))
            assert u.norm == u.value.norm() == a * a - d * b * b
            digest.update(f"{d} {a} {b} {u.norm};".encode())
        assert len(radicands) == 1823
        assert digest.hexdigest() == (
            "008237747d7179cc55bd4cb88c31e91056400d46d2f7f25e8c03e3e5d43f9d2c"
        )

    def test_half_period_walk_matches_the_full_period_walk(self):
        # value and norm at every squarefree d <= 20,000, the short-period
        # families a^2 +- 1 and a^2 +- 2 and the benchmark's large d; the
        # norm is (-1)^(period length)
        radicands = unit_radicands()
        assert len(radicands) == 12632
        for d in radicands:
            h, k, norm, length = reference_fundamental_unit(d)
            u = fundamental_unit(d)
            assert (u.value.d, u.value.a, u.value.b, u.norm) == (d, h, k, norm), d
            assert type(u.norm) is int and norm == (-1) ** length, d
            assert len(continued_fraction_sqrt(d)[1]) == length, d
            assert scalar_state(u.value) == ((h, k), 1)

    def test_unit_element_validation(self):
        with pytest.raises(InvalidInput):
            UnitElement(value=QuadIrrational(2, 1, 1), norm=1)  # true norm is -1
        with pytest.raises(InvalidInput):
            UnitElement(value=QuadIrrational(2, Fraction(1, 2), 1), norm=-1)


class TestQuadIrrational:
    def test_field_axioms_sampled(self):
        rng = random.Random(7)
        for _ in range(300):
            d = rng.choice([2, 5, 7, 13])
            x, y, z = (
                QuadIrrational(
                    d,
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                )
                for _ in range(3)
            )
            assert (x + y) * z == x * z + y * z
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            if x:
                assert x * x.inverse() == 1
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_mixing_radicands_is_an_error(self):
        with pytest.raises(InvalidInput):
            QuadIrrational(2, 1, 1) + QuadIrrational(3, 1, 1)
        with pytest.raises(InvalidInput):
            QuadIrrational(2, 1, 1) * QuadIrrational(5, 0, 1)
        # the same coefficients over another radicand are another value
        x, y = QuadIrrational(2, 1, 1), QuadIrrational(3, 1, 1)
        assert x != y and not x == y
        assert QuadIrrational(2, 1, 0) != QuadIrrational(3, 1, 0)
        for op in (
            lambda: x + y,
            lambda: x - y,
            lambda: x * y,
            lambda: x / y,
            lambda: y * x,
        ):
            with pytest.raises(InvalidInput):
                op()

    def test_negative_norm_inverse_is_canonical(self):
        # N(1 + sqrt(2)) = -1 and N(1 + 3 sqrt(2)) = -17 reach the
        # denominator with their sign
        x, y = QuadIrrational(2, 1, 1), QuadIrrational(2, 1, 3)
        assert x.norm() == -1 and y.norm() == -17
        quotients = [
            (x.inverse(), QuadIrrational(2, -1, 1)),
            (1 / x, QuadIrrational(2, -1, 1)),
            (QuadIrrational(2, 3, 5) / x, QuadIrrational(2, 7, -2)),
            (x / y, QuadIrrational(2, Fraction(5, 17), Fraction(2, 17))),
            (y.inverse(), QuadIrrational(2, Fraction(-1, 17), Fraction(3, 17))),
        ]
        for value, expected in quotients:
            assert value._den > 0 and math.gcd(value._den, *value._num) == 1
            assert (value._num, value._den) == (expected._num, expected._den)
        assert x * x.inverse() == 1 and y * y.inverse() == 1
        assert (x / y) * y == x

    def test_rationals_embed(self):
        for d in (2, 10**12 + 39):
            for r in (0, 3, -7, Fraction(-5, 12)):
                assert QuadIrrational(d, r, 0) == r
                assert hash(QuadIrrational(d, r, 0)) == hash(r)
        # a + b*sqrt(d) is real, so no property may read a off as its real part
        assert not hasattr(QuadIrrational(2, 1, 1), "real")

    def test_sign(self):
        assert QuadIrrational(2, 1, 1).sign() == 1
        assert QuadIrrational(2, 1, -1).sign() == -1  # 1 - sqrt(2) < 0
        assert QuadIrrational(2, 3, -2).sign() == 1  # 3 - 2 sqrt(2) > 0
        assert QuadIrrational(2, -1, 0).sign() == -1
        assert QuadIrrational(2, 0, 0).sign() == 0
        # a and b of opposite signs: the larger of a^2 and d*b^2 wins
        assert QuadIrrational(2, 3, -1).sign() == 1  # 3 - sqrt(2) > 0
        assert QuadIrrational(2, -3, 1).sign() == -1  # -3 + sqrt(2) < 0
        assert QuadIrrational(2, -1, 1).sign() == 1  # -1 + sqrt(2) > 0
        # a = 0: the sign of b
        assert QuadIrrational(2, 0, 1).sign() == 1
        assert QuadIrrational(2, 0, Fraction(-1, 3)).sign() == -1

    def test_non_squarefree_radicand_rejected(self):
        with pytest.raises(InvalidInput):
            QuadIrrational(12, 1, 1)

    def test_str_puts_the_sign_of_b_between_the_terms(self):
        half = Fraction(1, 2)
        table = {
            (0, 1): "√2", (0, -1): "-√2", (0, 3): "3√2", (0, -3): "-3√2",
            (0, half): "(1/2)√2", (0, -half): "-(1/2)√2",
            (1, 1): "1+√2", (1, -1): "1-√2", (1, 3): "1+3√2", (1, -3): "1-3√2",
            (1, half): "1+(1/2)√2", (1, -half): "1-(1/2)√2",
        }
        for (a, b), text in table.items():
            assert str(QuadIrrational(2, a, b)) == text

    def test_results_do_not_recheck_the_radicand(self, monkeypatch):
        # only the public constructor factors d; arithmetic results reuse it
        from amplecones import scalars

        calls = []
        original = scalars.squarefree_part
        monkeypatch.setattr(
            scalars, "squarefree_part", lambda n: calls.append(n) or original(n)
        )
        x = QuadIrrational(10**12 + 39, Fraction(1, 2), 3)
        assert calls == [10**12 + 39]
        y = (x * x + 1 - x) / (x * x * x) - 2
        assert (-y).conjugate().d == 10**12 + 39
        assert y * y.inverse() == 1
        assert calls == [10**12 + 39]


class TestGaussianRational:
    def test_field_axioms_sampled(self):
        rng = random.Random(11)
        for _ in range(300):
            x, y, z = (
                GaussianRational(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                )
                for _ in range(3)
            )
            assert (x + y) * z == x * z + y * z
            assert (x * y) * z == x * (y * z)
            if x:
                assert x * x.inverse() == 1
            assert (x * y).norm() == x.norm() * y.norm()

    def test_conjugation(self):
        x = GaussianRational(Fraction(3, 2), Fraction(-5, 7))
        assert x.conjugate().conjugate() == x
        assert x.conjugate().im == Fraction(5, 7)
        i = GaussianRational(0, 1)
        assert i * i == -1

    def test_rationals_embed(self):
        assert GaussianRational(3) == 3
        assert GaussianRational(re=3, im=0) == Fraction(3)
        assert GaussianRational(3, 1) != 3
        half = Fraction(1, 2)
        assert hash(GaussianRational(half)) == hash(half)
        assert {GaussianRational(half): "x"}[half] == "x"

    def test_immutable(self):
        x = GaussianRational(1, 2)
        with pytest.raises(AttributeError):
            x.re = 5
        with pytest.raises(AttributeError):
            x.other = 5
        assert x == GaussianRational(1, 2)

    def test_does_not_mix_with_quaternions(self):
        with pytest.raises(TypeError):
            GaussianRational(1) + RationalQuaternion(1)
        with pytest.raises(TypeError):
            RationalQuaternion(1) * GaussianRational(1)
        assert GaussianRational(1) != RationalQuaternion(1)

    def test_rational_left_operands(self):
        x = GaussianRational(Fraction(3, 2), -2)
        assert 1 - x == GaussianRational(Fraction(-1, 2), 2)
        assert 1 / x == x.inverse() == GaussianRational(Fraction(6, 25), Fraction(8, 25))
        assert 2 * x == x * 2 == x + x

    def test_repr_and_str(self):
        x = GaussianRational(Fraction(3, 2), Fraction(-5, 7))
        assert repr(x) == "GaussianRational(Fraction(3, 2), Fraction(-5, 7))"
        assert str(x) == "3/2-5/7i"


class TestRationalQuaternion:
    def test_division_ring_sampled(self):
        rng = random.Random(13)
        checked = 0
        while checked < 1000:
            x = RationalQuaternion(
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            if not x:
                continue
            assert x * x.inverse() == 1
            assert x.inverse() * x == 1
            checked += 1

    def test_associativity_and_norm(self):
        rng = random.Random(17)
        for _ in range(200):
            x, y, z = (
                RationalQuaternion(
                    rng.randint(-5, 5),
                    rng.randint(-5, 5),
                    rng.randint(-5, 5),
                    rng.randint(-5, 5),
                )
                for _ in range(3)
            )
            assert (x * y) * z == x * (y * z)
            assert (x * y).norm() == x.norm() * y.norm()

    def test_conjugation_antiautomorphism(self):
        rng = random.Random(19)
        for _ in range(200):
            x, y = (
                RationalQuaternion(
                    rng.randint(-5, 5),
                    rng.randint(-5, 5),
                    rng.randint(-5, 5),
                    rng.randint(-5, 5),
                )
                for _ in range(2)
            )
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == y.conjugate() * x.conjugate()

    def test_noncommutative(self):
        i = RationalQuaternion(0, 1, 0, 0)
        j = RationalQuaternion(0, 0, 1, 0)
        k = RationalQuaternion(0, 0, 0, 1)
        assert i * j == k
        assert j * i == -k
        assert i * i == -1

    def test_rationals_embed(self):
        assert RationalQuaternion(3) == 3
        assert RationalQuaternion(w=3, z=0) == Fraction(3)
        assert RationalQuaternion(3, 0, 0, 1) != 3
        half = Fraction(1, 2)
        assert hash(RationalQuaternion(half)) == hash(half)

    def test_immutable(self):
        x = RationalQuaternion(1, 2, 3, 4)
        for name in ("w", "x", "y", "z", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 5)
        assert x == RationalQuaternion(1, 2, 3, 4)

    def test_rational_left_operands(self):
        x = RationalQuaternion(1, -1, 2, 0)
        assert 1 - x == RationalQuaternion(0, 1, -2, 0)
        assert 1 / x == x.inverse() == RationalQuaternion(
            Fraction(1, 6), Fraction(1, 6), Fraction(-1, 3), 0
        )

    def test_right_division(self):
        i = RationalQuaternion(0, 1, 0, 0)
        x = RationalQuaternion(1, 2, 3, 4)
        y = RationalQuaternion(0, 1, 1, 0)
        assert x / y == x * y.inverse()
        assert x / y != y.inverse() * x
        assert (x / y) * y == x
        assert x / 2 == RationalQuaternion(Fraction(1, 2), 1, Fraction(3, 2), 2)
        assert i / i == 1

    def test_repr_and_str(self):
        x = RationalQuaternion(Fraction(1, 2), -2, 0, Fraction(3, 4))
        assert repr(x) == (
            "RationalQuaternion(Fraction(1, 2), Fraction(-2, 1), "
            "Fraction(0, 1), Fraction(3, 4))"
        )
        assert str(x) == "1/2-2i+3/4k"


D_LARGE = 10**12 + 39

ALGEBRAS = [
    (GaussianRational, ("re", "im"), ref_mul),
    (RationalQuaternion, ("w", "x", "y", "z"), ref_mul),
    (partial(QuadIrrational, 2), ("a", "b"), ref_quad_mul(2)),
    (partial(QuadIrrational, D_LARGE), ("a", "b"), ref_quad_mul(D_LARGE)),
]


def _random_coeff(rng: random.Random) -> Fraction:
    shape = rng.randrange(5)
    if shape == 0:
        return Fraction(0)
    if shape == 1:
        return Fraction(rng.randint(-(2**200), 2**200), rng.randint(1, 2**200))
    if shape == 2:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-30, 30), rng.choice((2, 3, 4, 6, 7, 12, 35)))


def _random_rational(rng: random.Random):
    """An int or a Fraction operand."""
    c = _random_coeff(rng)
    return c.numerator if c.denominator == 1 and rng.random() < 0.5 else c


class TestIntegerRepresentation:
    """Q(sqrt(d)), Q(i) and H(Q) store integers over one denominator; every
    operation must agree with plain Fraction-tuple arithmetic and leave its
    result in the one canonical (lowest-terms) state of its value."""

    @staticmethod
    def _check(make, names, value, expected):
        twin = make(*expected)  # the same value by the public constructor
        assert type(value) is type(twin)
        coeffs = tuple(getattr(value, name) for name in names)
        assert coeffs == expected
        assert all(type(c) is Fraction for c in coeffs)
        assert value == twin
        assert getattr(value, "d", None) == getattr(twin, "d", None)
        assert (value._num, value._den) == (twin._num, twin._den)
        assert value._den > 0 and math.gcd(value._den, *value._num) == 1
        assert repr(value) == repr(twin) and str(value) == str(twin)
        assert hash(value) == hash(twin)

    @pytest.mark.parametrize(
        "make,names,mul", ALGEBRAS, ids=["C", "H", "Q(sqrt2)", "Q(sqrt(10^12+39))"]
    )
    def test_matches_fraction_tuple_reference(self, make, names, mul, monkeypatch):
        from amplecones import scalars

        # QuadIrrational's public constructor factors d by trial division
        # (0.1 s for 10**12 + 39); each twin still runs the rest of it
        check = lru_cache(maxsize=None)(scalars._check_order_input)
        monkeypatch.setattr(scalars, "_check_order_input", check)
        # C and H keep their seeds; each radicand d adds its own
        rng = random.Random(4099 + len(names) + getattr(make, "args", (0,))[0])
        width = len(names)
        zero = (Fraction(0),) * width
        for step in range(200):
            p = tuple(_random_coeff(rng) for _ in range(width))
            q = tuple(_random_coeff(rng) for _ in range(width))
            if step % 25 == 0:
                q = zero
            r = _random_rational(rng)
            x, y, rr = make(*p), make(*q), ref_embed(r, width)
            cases = [
                (x, p),
                (x + y, ref_add(p, q)),
                (x - y, ref_sub(p, q)),
                (x * y, mul(p, q)),
                (y * x, mul(q, p)),
                (x + r, ref_add(p, rr)),
                (r + x, ref_add(rr, p)),
                (x - r, ref_sub(p, rr)),
                (r - x, ref_sub(rr, p)),
                (x * r, mul(p, rr)),
                (r * x, mul(rr, p)),
                (-x, tuple(-c for c in p)),
                (x.conjugate(), ref_conj(p)),
                ((x + y) - y, p),
            ]
            if any(q):
                cases += [
                    (x / y, mul(p, ref_inverse(q, mul))),
                    (r / y, mul(rr, ref_inverse(q, mul))),
                    (y.inverse(), ref_inverse(q, mul)),
                    ((x * y) / y, p),
                ]
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y
                with pytest.raises(ZeroDivisionError):
                    r / y
                with pytest.raises(ZeroDivisionError):
                    y.inverse()
            if r:
                cases.append((x / r, mul(p, ref_inverse(rr, mul))))
            for value, expected in cases:
                self._check(make, names, value, expected)

            assert x.norm() == ref_norm(p, mul) and type(x.norm()) is Fraction
            assert bool(x) is any(p)
            f, real = Fraction(r), make(*rr)
            assert real == r and r == real and real == f
            assert hash(real) == hash(r) == hash(f)
            if r:  # same numerator, another denominator
                assert real != Fraction(f.numerator, 2 * f.denominator + 1)
            assert (x == p[0]) is not any(p[1:])
            assert (x == r) is (x == real) is (p == rr)


class TestPinnedOutputs:
    """Sums, products, conjugates and norms of Q(i), H(Q) and Q(sqrt(7))
    elements on 900 seeded operand pairs, 12,600 outputs in all, pinned by
    the SHA-256 of their reprs and stored integers.  Coefficients are ints
    or Fractions, and the second operand is of the same class, an int or a
    Fraction, on either side.  The digest was taken with the generic
    conjugation and with every coefficient read through Fraction, so it
    pins the written-out conjugates, the direct reading of ints and
    Fractions and the exact-class operand path byte for byte."""

    DIGEST = "2ed0c8e1724c9c9f688b3fda62e4326ccbf539b0bd596211bf638100959f6c60"

    @staticmethod
    def outputs():
        rng = random.Random(127)
        for make, width in (
            (GaussianRational, 2),
            (RationalQuaternion, 4),
            (partial(QuadIrrational, 7), 2),
        ):
            for _ in range(300):
                x = make(*[_random_rational(rng) for _ in range(width)])
                y = make(*[_random_rational(rng) for _ in range(width)])
                for other in (y, _random_rational(rng), rng.randint(-9, 9)):
                    for value in (x + other, other + x, x * other, other * x):
                        yield f"{value!r} {scalar_state(value)}"
                yield f"{x.conjugate()!r} {scalar_state(x.conjugate())} {x.norm()!r}"
                yield f"{y.conjugate()!r} {scalar_state(y.conjugate())} {y.norm()!r}"

    def test_digest(self):
        outputs = list(self.outputs())
        assert len(outputs) == 12600
        digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        assert digest == self.DIGEST


class TestTotalPositivity:
    def test_examples(self):
        assert is_totally_positive(QuadIrrational(2, 3, 2))  # 3 + 2 sqrt(2)
        assert not is_totally_positive(QuadIrrational(2, 1, 1))  # 1 - sqrt(2) < 0
        assert not is_totally_positive(QuadIrrational(2, -1, 0))


class TestDirichletRank:
    def test_examples(self):
        assert dirichlet_rank(2, 0) == 1
        assert dirichlet_rank(1, 0) == 0
        assert dirichlet_rank(0, 1) == 0

    def test_empty_signature_rejected(self):
        with pytest.raises(InvalidInput):
            dirichlet_rank(0, 0)


@pytest.mark.parametrize(
    "x",
    [
        GaussianRational(Fraction(1, 2), -3),
        RationalQuaternion(1, Fraction(-2, 3), 0, 5),
        QuadIrrational(7, Fraction(3, 4), -1),
    ],
    ids=["C", "H", "sqrt7"],
)
def test_copies_compare_equal(x):
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is type(x) and twin == x and repr(twin) == repr(x)
        assert (twin._num, twin._den) == (x._num, x._den)


@pytest.mark.parametrize(
    "x",
    [GaussianRational(1, 2), RationalQuaternion(1, 2, 3, 4), QuadIrrational(2, 1, 1)],
    ids=["C", "H", "sqrt2"],
)
@pytest.mark.parametrize(
    "foreign", [object(), "1", 1.5, [1]], ids=["object", "text", "float", "list"]
)
def test_foreign_operands_are_not_implemented(x, foreign):
    # each binary operator, on either side, hands a foreign operand back to
    # Python, which raises TypeError once the other side declines too
    names = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv")
    for name in names:
        assert getattr(x, f"__{name}__")(foreign) is NotImplemented
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, foreign)
        with pytest.raises(TypeError):
            op(foreign, x)
    assert x.__eq__(foreign) is NotImplemented
    assert (x == foreign) is False and (x != foreign) is True
