"""Exact rational post-oracle states.

A state is a plain mapping from (list index, answer index, workspace cell)
int triples to nonzero rational amplitudes; this module gives their norms,
inner products, distances and the measurement of the leading workspace
cells. The list and answer indices only label the fibers the final
transform acts on; the workspace is the one register with a size, and it
is read from the computer, not stored in the state. States are checked
where they are born: the prequery terms they come from when the input is
validated (model.NonadaptiveComputer.prequery_state), and every image the
final transform writes (model.FiberFinal), so nothing here checks them
again. Nothing here touches floating point: every amplitude and
probability is a `fractions.Fraction`.

model.run does not build states: a run that misses its memo is one pass
over the input's cached terms, which adds each term's cached square into
its outcome. measure_register, applied to model.FiberFinal.apply's state,
is the reference path that the tests compare those runs against.
model.overlap takes inner_product of the oracle's states.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


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


def norm_sq(state: Mapping) -> Fraction:
    """Sum of squared amplitudes, exactly."""
    return sum((amp * amp for amp in state.values()), Fraction(0))


def inner_product(a: Mapping, b: Mapping) -> Fraction:
    """Real inner product over the shared support."""
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = Fraction(0)
    for key, amp in small.items():
        other = large.get(key)
        if other is not None:
            total += amp * other
    return total


def distance_sq(a: Mapping, b: Mapping) -> Fraction:
    """Squared Euclidean distance between two states."""
    return norm_sq(a) + norm_sq(b) - 2 * inner_product(a, b)


def measure_register(state: Mapping, workspace_dim: int, width: int) -> dict[int, Fraction]:
    """Exact outcome distribution for the first `width` workspace cells.

    workspace_dim must be divisible by 2**width; probabilities sum to
    norm_sq(state), which is 1 for unit states.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    block = 2**width
    if workspace_dim % block != 0:
        raise DimensionMismatchError(
            f"workspace of size {workspace_dim} cannot be split into "
            f"{block} outcome blocks"
        )
    stride = workspace_dim // block
    probs: dict[int, Fraction] = {}
    for (_lidx, _aidx, ws), amp in state.items():
        outcome = ws // stride
        probs[outcome] = probs.get(outcome, Fraction(0)) + amp * amp
    return probs
