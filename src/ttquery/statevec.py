"""Exact rationals: parsing, printing and the error tolerance.

Every amplitude and probability is a `fractions.Fraction`; nothing here
touches floating point. A post-oracle state is keyed by (list index,
answer index, workspace cell); the workspace is the one register with a
size, and DimensionMismatchError names a cell outside it. The library
builds no state: model.run and model.overlap each read a run in one pass
over an input's cached terms (see model). The state-by-state path that
builds states, applies the final to them and measures or compares them is
kept in tests/reference.py, as the reference that the tests compare those
two against.
"""

from __future__ import annotations

from fractions import Fraction


ZERO = Fraction(0)


class DimensionMismatchError(ValueError):
    """A workspace cell or a measured width does not fit the workspace."""


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
