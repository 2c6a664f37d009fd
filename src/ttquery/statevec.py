"""Exact rationals: parsing, printing and the error tolerance.

Every amplitude, probability, weight and threshold in the library is a
`fractions.Fraction`; nothing here touches floating point. as_rational is
the one reader of a rational that comes from outside the library: config
`epsilon` and `c`, error parameters, and prequery and document
amplitudes. It takes an int or a Fraction that is not a bool, or a "p" or
"p/q" string in the form rational_str prints, so every value the library
prints reads back unchanged; decimal and exponent forms, a `+`, spaces, a
zero denominator and a part past Python's integer digit limit are
refused. printable is rational_str for a message, which never fails.
checked_epsilon states the rule for an error tolerance, a rational in
[0, 1/2).
"""

from __future__ import annotations

import re
from fractions import Fraction


ZERO = Fraction(0)

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_rational(value: int | str | Fraction) -> Fraction:
    """An int, a Fraction or a "p" / "p/q" string as an exact rational.

    A bool or a value of another type raises TypeError; any other string,
    a zero denominator, or a part past Python's integer digit limit raises
    a one-line ValueError. Each message starts with the value, so a caller
    can name what the value is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not an int, a Fraction or a 'p/q' string")
    if not _RATIONAL.fullmatch(value):
        raise ValueError(f"{value!r} is not an int, a Fraction or a 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None
    except ValueError:
        # the grammar leaves only the digit limit to refuse; the value is
        # thousands of digits long, so only its start is shown
        raise ValueError(
            f"'{value[:12]}...' ({len(value)} characters) has a part past "
            "Python's integer digit limit"
        ) from None


def checked_epsilon(value: int | str | Fraction) -> Fraction:
    """An error tolerance as a rational in [0, 1/2), or ValueError."""
    epsilon = as_rational(value)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon >= Fraction(1, 2):
        raise ValueError("epsilon must be below 1/2")
    return epsilon


def rational_str(value: Fraction) -> str:
    """Serialize a rational (or an int) as "p/q", or just "p" for integers.

    A part past Python's integer digit limit raises ValueError.
    """
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def printable(value: int | Fraction) -> str:
    """rational_str(value) for a message, which must print whatever the
    value: a part past Python's integer digit limit is given by its
    length in bits instead."""
    try:
        return rational_str(value)
    except ValueError:
        value = Fraction(value)
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        return f"(a number with a {bits}-bit part, too long to print)"
