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

`four_squares` writes a nonnegative rational as a sum of four rational
squares; the loader builds its orthonormal frame with it and so never
takes a square root.

`json_text` is the one writer of JSON text, for reports and exports: the
text of `json.dumps(value, indent=2)`, byte for byte, without the
pure-Python encoder that an `indent` argument selects.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
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
    """Render a scalar in wire format ("p" or "p/q", lowest terms). An int
    is written directly; a bool, an int subclass, goes through Fraction
    with the rest and is written as 0 or 1."""
    return str(value) if type(value) is int else str(Fraction(value))


def json_text(value: object) -> str:
    """`json.dumps(value, indent=2)`, byte for byte. Containers are dicts,
    with `str` keys, and lists (a tuple is written as a list, as json
    writes it); a str leaf is escaped to ASCII, an int, bool or None leaf
    is written directly, and any other leaf, a float say, goes through
    `json.dumps`."""
    return _json_lines(value, "\n")


def _json_lines(value: object, newline: str) -> str:
    """`value` as JSON text; each line inside it starts with `newline`."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [encode_basestring_ascii(k) + ": " + _json_lines(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_lines(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    return json.dumps(value)


# Steps the four-squares search may take, one per candidate part: the
# Cayley-rotated examples' weights (pr of 16 digits) take 92, random pr of
# up to 24 digits under 4 * 10^4; 10^5 steps take about 0.1 s.
FOUR_SQUARES_STEPS = 100_000


def four_squares(q: Scalar) -> tuple[Scalar, Scalar, Scalar, Scalar]:
    """Rationals (a, b, c, d), a >= b >= c >= d >= 0, with
    a^2 + b^2 + c^2 + d^2 = q for a rational q >= 0 (Lagrange's theorem).

    With q = p/r in lowest terms, it divides by r the first representation
    of pr as a sum of four squares in descending lexicographic order (a
    depth-first search, largest part first), so a square q gives
    (sqrt(q), 0, 0, 0). A part is an int wherever it is integral. Raises
    ValueError for a negative q and after FOUR_SQUARES_STEPS steps.
    """
    q = Fraction(q)
    r = q.denominator
    parts = _squares(q.numerator * r, 4, [FOUR_SQUARES_STEPS])
    return tuple(x // r if x % r == 0 else Fraction(x, r) for x in parts)


def _squares(n: int, k: int, budget: list[int], top: int | None = None) -> tuple[int, ...] | None:
    """k non-increasing ints in 0..top whose squares sum to n, largest first,
    or None (never for k = 4). With n = 4^a m, 4 not dividing m, a branch is
    cut when m is 7 mod 8 and k = 3 (Legendre) or 3 mod 4 and k = 2."""
    x = isqrt(n) if top is None else min(top, isqrt(n))
    if k == 1:
        return (x,) if x * x == n else None
    m = n
    while m and m % 4 == 0:
        m //= 4
    if k == 3 and m % 8 == 7 or k == 2 and m % 4 == 3:
        return None
    while x >= 0 and k * x * x >= n:  # the largest part is at least sqrt(n/k)
        budget[0] -= 1
        if budget[0] < 0:
            raise ValueError(f"the four-squares search took over {FOUR_SQUARES_STEPS} steps")
        rest = _squares(n - x * x, k - 1, budget, x)
        if rest is not None:
            return (x, *rest)
        x -= 1
    return None
