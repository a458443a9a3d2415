"""Properties of the argument readers in ``amplecones.errors``."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from amplecones import GaussianRational, InvalidInput, ShapeMismatch
from amplecones.errors import _integer, _integer_point, _rationals, format_point

FINITE = st.one_of(
    st.integers(),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.decimals(min_value=-(10**30), max_value=10**30, places=30),
)
# one nonzero digit before the point, so that str(Decimal) writes the same
# exponent as the text
MANTISSA = st.from_regex(r"[-+]?[1-9](\.[0-9]{0,4})?", fullmatch=True)
NOT_RATIONAL = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), Decimal("NaN"), None, object(), "abc", 1j, (1,)]
)


@given(st.integers(), st.integers(-10, 10))
def test_integer_reader_returns_every_int_at_or_above_the_bound(n, low):
    if n >= low:
        assert _integer(n, "n", low, "below") is n
    else:
        with pytest.raises(InvalidInput, match="^below$"):
            _integer(n, "n", low, "below")
    assert _integer(n, "n") is n


@given(st.one_of(st.booleans(), st.floats(), st.fractions(), st.text(), st.none()))
def test_integer_reader_rejects_every_other_type(value):
    with pytest.raises(InvalidInput, match=f"^n must be an int, not {type(value).__name__}$"):
        _integer(value, "n", 0, "below")


@given(st.lists(FINITE, max_size=4))
def test_rational_reader_equals_fraction_on_finite_input(values):
    assert _rationals(tuple(values)) == [Fraction(c) for c in values]


@given(st.lists(FINITE, max_size=3), st.integers(0, 3), NOT_RATIONAL)
def test_rational_reader_rejects_nan_infinities_and_non_numbers(values, index, bad):
    values.insert(index, bad)
    with pytest.raises(InvalidInput, match="must be finite rational numbers"):
        _rationals(tuple(values))


@given(st.one_of(st.integers(), st.fractions(), st.floats(allow_nan=False, allow_infinity=False)))
def test_gaussian_rational_reads_what_fraction_reads(x):
    assert GaussianRational(x) == GaussianRational(Fraction(x))
    assert GaussianRational(0, x) == GaussianRational(0, Fraction(x))


@given(MANTISSA, st.integers(-8600, 8600))
@example("1", 4300)
@example("-9.5", -4300)
@example("1", 4301)
@example("-9.5", -4301)
def test_text_and_decimals_read_up_to_the_exponent_bound(mantissa, exponent):
    for value in (f"{mantissa}e{exponent}", Decimal(f"{mantissa}E{exponent}")):
        if abs(exponent) <= 4300:
            assert _rationals((value,)) == [Fraction(value)]
        else:
            with pytest.raises(InvalidInput, match="exponents of at most 4300 in absolute value$"):
                _rationals((value,))


def test_exponent_bound():
    assert _rationals(("1e4300", "-2.5E-4300")) == [10**4300, Fraction(-25, 10**4301)]
    assert _rationals((Decimal("1e4300"), " 1e4_300 ")) == [10**4300, 10**4300]
    for bad, shown in [
        ("1e4301", "'1e4301'"),
        (" 1e4_301 ", "' 1e4_301 '"),
        ("0e10000000", "'0e10000000'"),
        (Decimal("-2.5E-4301"), "-2.5E-4301"),
    ]:
        with pytest.raises(InvalidInput) as caught:
            _rationals((1, bad), "parameters a, b")
        assert str(caught.value) == (
            f"parameters a, b of (1, {shown}) must be written with exponents "
            "of at most 4300 in absolute value"
        )



def test_long_text_is_named_by_its_prefix_and_length():
    # text of up to 60 characters is quoted whole; longer text by its first
    # 20 characters and its length, so a message stays short
    for text, shown in [
        ("x" * 60, repr("x" * 60)),
        ("x" * 61, "'xxxxxxxxxxxxxxxxxxxx'... (61 characters)"),
        ("y" * 20 + "z" * 5000, "'yyyyyyyyyyyyyyyyyyyy'... (5020 characters)"),
        ("1e" + "0" * 70 + "5000", "'1e000000000000000000'... (76 characters)"),
    ]:
        with pytest.raises(InvalidInput) as caught:
            _rationals((1, text), "parameters a, b")
        assert str(caught.value).startswith(f"parameters a, b of (1, {shown}) must be ")


def test_long_point_is_named_by_its_prefix_and_count():
    # a point, or a sequence inside it, of up to 12 items is shown whole;
    # a longer one by its first 8 items and its count
    assert format_point(range(12)) == "(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)"
    assert format_point(range(13)) == "(0, 1, 2, 3, 4, 5, 6, 7, ... (13 items))"
    assert format_point([(1,) * 13, [2] * 12]) == (
        "((1, 1, 1, 1, 1, 1, 1, 1, ... (13 items)), [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2])"
    )
    with pytest.raises(InvalidInput) as caught:
        _rationals(["x"] * 3000, "coordinates")
    assert str(caught.value) == (
        "coordinates of ('x', 'x', 'x', 'x', 'x', 'x', 'x', 'x', ... (3000 items)) "
        "must be finite rational numbers"
    )
    with pytest.raises(ShapeMismatch) as caught:
        _integer_point((1,) * 12, 2)
    assert str(caught.value) == (
        "point (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1) does not live in dimension 2"
    )
