"""Exact rational scalars and their wire format.

Every scalar in the engine is a plain int or a fractions.Fraction. The two
mix freely under Python's numeric tower and compare equal when they should,
so callers never need to normalize, and no engine code tests which of the
two a scalar is. The one trap is true division of two bare ints (it
produces a float); divide through Fraction instead.

The report writes a rational by its value alone. A named rational field
goes through `format_scalar` and is always a wire-format string; a scalar
inside a counterexample or a first difference is a JSON integer when it is
integral and a "p/q" string otherwise, whether it arrived as an int or a
Fraction.

Wire format: a rational is a JSON integer or a string "p" / "p/q" with an
optional leading minus sign and a positive denominator, p and q written
in ASCII digits only (no other Unicode digit, no surrounding whitespace,
no trailing newline).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

Scalar = int | Fraction

_WIRE_RE = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_scalar(raw: object) -> Scalar:
    """Parse a wire-format rational: an int when integral, else a Fraction.
    Rejects floats and malformed strings."""
    if isinstance(raw, bool):
        raise ValueError(f"not a rational: {raw!r}")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str) and _WIRE_RE.fullmatch(raw):
        if "/" not in raw:
            return int(raw)
        try:
            value = Fraction(raw)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {raw!r}") from None
        return value.numerator if value.denominator == 1 else value
    raise ValueError(f"not a rational: {raw!r}")


def format_scalar(value: Scalar) -> str:
    """Render a scalar in wire format ("p" or "p/q", lowest terms)."""
    return str(Fraction(value))


def exact_sqrt(value: Scalar) -> Fraction:
    """Square root of a nonnegative rational, exact or bust.

    Raises ValueError when the root is irrational; the engine never
    approximates.
    """
    q = Fraction(value)
    if q < 0:
        raise ValueError(f"square root of negative value {q}")
    num_root = isqrt(q.numerator)
    den_root = isqrt(q.denominator)
    if num_root * num_root != q.numerator or den_root * den_root != q.denominator:
        raise ValueError(f"no exact rational square root of {q}")
    return Fraction(num_root, den_root)
