import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hktlab.exact import format_scalar, four_squares, json_text, parse_scalar

from oracle_impl import naive_four_squares


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


@given(
    st.one_of(
        st.integers(),
        st.integers(min_value=2**64, max_value=2**80),
        st.integers(min_value=-(2**80), max_value=-(2**64)),
        st.just(0),
        st.fractions(),
        st.booleans(),
    )
)
def test_format_matches_the_fraction_form(value):
    # ints are written directly; bools and Fractions go through Fraction
    assert format_scalar(value) == str(Fraction(value))


@given(st.fractions())
def test_format_parse_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_four_squares_values():
    # the largest part first: a square gives its root and three int zeros
    assert four_squares(Fraction(9, 4)) == (Fraction(3, 2), 0, 0, 0)
    assert four_squares(Fraction(0)) == (0, 0, 0, 0)
    assert four_squares(Fraction(49)) == (7, 0, 0, 0)
    assert [type(x) for x in four_squares(49)] == [int] * 4
    assert four_squares(7) == (2, 1, 1, 1)


@pytest.mark.parametrize(
    "q, want",
    [
        (Fraction(2), (1, 1, 0, 0)),
        (Fraction(1, 3), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0)),
        (Fraction(8, 9), (Fraction(8, 9), Fraction(2, 9), Fraction(2, 9), 0)),
    ],
)
def test_four_squares_of_non_squares(q, want):
    assert four_squares(q) == want


def test_four_squares_negative():
    with pytest.raises(ValueError):
        four_squares(Fraction(-4))


@given(st.fractions(min_value=0))
def test_four_squares_squares(q):
    assert four_squares(q * q) == (q, 0, 0, 0)


@given(st.fractions(min_value=0, max_value=50, max_denominator=40))
def test_four_squares_match_plain_enumeration(q):
    got = four_squares(q)
    assert sum(x * x for x in got) == q
    assert got == naive_four_squares(q)


# strings with quotes, backslashes, control characters and non-ASCII text,
# astral characters (written as surrogate pairs) included
TRICKY_TEXT = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀ab: ,{}[]')) | st.text()
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**30, max_value=10**60).map(lambda x: x * (-1) ** (x % 2))
    | st.floats()
    | TRICKY_TEXT
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(TRICKY_TEXT, inner, max_size=4),
    max_leaves=30,
)


@given(JSON_VALUES)
@example({})
@example([])
@example({"": [{}, [], [[]], {"a": {}}]})
@example(float("nan"))
@example([float("inf"), -float("inf"), -0.0, 1e300, 5e-324])
@example({"k\u2028\"": "\ud800", "é": 10**100})
@settings(max_examples=100, deadline=None)
def test_json_text_is_indented_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_rejects_what_dumps_rejects():
    for value in (Fraction(1, 2), {1}, b"x"):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            json_text(value)
