"""Exact rational scalars and their text form.

Everything in the kernel computes over arbitrary-precision fractions. This
module fixes the canonical construction and the "p/q" literal syntax used
by every JSON document in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from ..errors import InputError

Rational = Fraction

_RATIONAL_RE = re.compile(r"^([+-]?\d+)\s*(?:/\s*([+-]?\d+))?$")


def rational_normalize(num: int, den: int = 1) -> Fraction:
    """Canonical fraction: positive denominator, numerator and denominator coprime."""
    if den == 0:
        raise InputError(f"zero denominator: {num}/0")
    return Fraction(num, den)


def parse_rational(text) -> Fraction:
    """Parse a "p" or "p/q" literal exactly.

    JSON integers are accepted as a convenience; floats and anything else
    are rejected so no inexactness sneaks in through a document.
    """
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        m = _RATIONAL_RE.match(text.strip())
        if m is not None:
            den = int(m.group(2)) if m.group(2) is not None else 1
            return rational_normalize(int(m.group(1)), den)
    raise InputError(f"not a rational literal: {text!r}")


def format_rational(x) -> str:
    """Inverse of parse_rational: "p" when integral, otherwise "p/q"."""
    if type(x) is not Fraction and type(x) is not int:  # bool takes this path too
        x = Fraction(x)
    return format_quotient(x.numerator, x.denominator)


def format_quotient(x: int, s: int) -> str:
    """The text of the rational x/s, s > 0, in lowest terms, from one gcd."""
    g = gcd(x, s)
    return str(x // g) if s == g else f"{x // g}/{s // g}"


def integer_vector(values) -> tuple[list[int], int]:
    """Exact values scaled to integers by the lcm of their denominators, and that lcm."""
    values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    scale = lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale
