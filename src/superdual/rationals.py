"""Helpers for exact rational I/O.

All numerical data in this package is `fractions.Fraction`; floats are never
accepted.  The wire format for a rational is the string "a/b" with b > 0 and
gcd(a, b) = 1, or a bare integer string "a" (schemas/rational.schema.json).
"""

import re
from fractions import Fraction

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def rat(x) -> Fraction:
    """Coerce ints, Fractions and wire-format strings to Fraction.

    Floats and bools are rejected (TypeError), and so are strings other than
    "a" or a reduced "a/b" (ValueError): "1.5", "1e0" and "2/4" are refused.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL.fullmatch(x):
            raise ValueError(f"not a rational 'a' or 'a/b': {x!r}")
        out = Fraction(x)
        if "/" in x and int(x.split("/")[1]) != out.denominator:
            raise ValueError(f"rational not in lowest terms: {x!r}")
        return out
    raise TypeError(f"not an exact rational: {x!r}")


def wire_int(x) -> int:
    """A JSON integer: bools and floats are rejected (TypeError)."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise TypeError(f"not an integer: {x!r}")


def rat_str(x: Fraction) -> str:
    """Canonical string form: "a" for integers, "a/b" otherwise (b > 0, reduced)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def is_int(x: Fraction) -> bool:
    return Fraction(x).denominator == 1
