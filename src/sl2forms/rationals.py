"""Exact rational scalars and the combinatorial primitives used everywhere else.

Scalars are plain ``int`` or :class:`fractions.Fraction`; both are exact,
immutable, hashable, and serialize as ``p/q`` (``q`` omitted when 1) via
``str``.  No floating point enters the computational core.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction]

ZERO = Fraction(0)


def factorial(n: int) -> int:
    """n! for n >= 0; raises ValueError for negative n."""
    if n < 0:
        raise ValueError(f"factorial is undefined for negative n (got {n})")
    return math.factorial(n)


def reciprocal_factorial(j: int) -> Fraction:
    """1/j! for j >= 0, and exactly 0 for j < 0 (reciprocal-gamma convention)."""
    if j < 0:
        return ZERO
    return Fraction(1, math.factorial(j))


def sign(x: Scalar) -> int:
    """Exact sign of a rational: -1, 0 or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def excerpt(text: str, limit: int = 40) -> str:
    """`text` for an error message: as it is up to `limit` characters, else
    its first `limit` characters and its length, so a message stays short."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal like ``-3``, ``7/2`` or ``0.5`` exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {excerpt(text)!r}") from exc
