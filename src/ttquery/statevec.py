"""Exact rationals: parsing, printing and the error tolerance.

Every amplitude, probability, weight and threshold in the library is a
`fractions.Fraction`; nothing here touches floating point. as_rational
reads an int, a Fraction or a "p/q" string, rational_str prints one back
as "p/q" (or "p" for an integer), and checked_epsilon states the rule for
an error tolerance, a rational in [0, 1/2).
"""

from __future__ import annotations

from fractions import Fraction


ZERO = Fraction(0)


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def checked_epsilon(value: int | str | Fraction) -> Fraction:
    """An error tolerance as a rational in [0, 1/2), or ValueError."""
    epsilon = as_rational(value)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon >= Fraction(1, 2):
        raise ValueError("epsilon must be below 1/2")
    return epsilon


def rational_str(value: Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" for integers."""
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
