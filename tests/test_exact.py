from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hktlab.exact import exact_sqrt, format_scalar, parse_scalar


def test_parse_plain_integers():
    assert parse_scalar("5") == 5
    assert parse_scalar("-12") == -12
    assert parse_scalar(7) == 7
    assert parse_scalar(-3) == -3


@pytest.mark.parametrize(
    "raw, want", [("-0", 0), ("007", 7), ("-007", -7), ("12", 12), ("-" + "9" * 40, -int("9" * 40))]
)
def test_parse_integer_strings_to_int(raw, want):
    value = parse_scalar(raw)
    assert value == want
    assert type(value) is int


def test_parse_fractions():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-9/6") == Fraction(-3, 2)


@pytest.mark.parametrize(
    "bad",
    ["", "1.5", "a", "1/2/3", "2e3", " 1", "1 ", "--1", "+1", "\u0661", "\uff11\uff12", "1\n"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("bad", [1.5, None, True, False, [1], {"p": 1}])
def test_parse_rejects_nonstring_nonint(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar("1/0")


def test_format_canonical():
    assert format_scalar(Fraction(4, 8)) == "1/2"
    assert format_scalar(Fraction(-4, 2)) == "-2"
    assert format_scalar(3) == "3"


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_exact_sqrt_values():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(49)) == 7


@pytest.mark.parametrize("bad", [Fraction(2), Fraction(1, 3), Fraction(8, 9)])
def test_exact_sqrt_irrational(bad):
    with pytest.raises(ValueError, match="no exact rational square root"):
        exact_sqrt(bad)


def test_exact_sqrt_negative():
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-4))


@given(st.fractions(min_value=0))
def test_exact_sqrt_squares(q):
    assert exact_sqrt(q * q) == abs(q)
