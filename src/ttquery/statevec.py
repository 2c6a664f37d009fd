"""Exact rational post-oracle states.

A state is a sparse map from (list index, answer index, workspace cell)
keys to rational amplitudes, with norms, inner products, distances and
measurement of the leading workspace cells. The list and answer indices
only label the fibers the final transform acts on; the workspace is the
one register with a size. Nothing here touches floating point: every
amplitude and probability is a `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Rational = Fraction


class DimensionMismatchError(ValueError):
    """A workspace cell or width does not fit, or two workspaces differ."""


def as_rational(value: int | str | Fraction) -> Fraction:
    """Coerce ints, Fractions, and "p/q" strings to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as a rational")


def rational_str(value: Fraction) -> str:
    """Serialize a rational as "p/q", or just "p" for integers."""
    value = as_rational(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class SparseState:
    """Sparse amplitudes of a post-oracle state.

    Keys are (list index, answer index, workspace cell) int triples. Only
    the workspace is sized: every cell lies in 0..workspace_dim - 1, while
    the list and answer indices only label fibers and need no bound. Zero
    amplitudes are dropped on construction, and instances are immutable
    once built.
    """

    __slots__ = ("workspace_dim", "amps")

    def __init__(self, workspace_dim: int, amps: Mapping):
        clean: dict[tuple[int, int, int], Fraction] = {}
        for key, amp in amps.items():
            _lidx, _aidx, ws = key
            if not 0 <= ws < workspace_dim:
                raise DimensionMismatchError(
                    f"workspace cell {ws} outside 0..{workspace_dim - 1}"
                )
            amp = as_rational(amp)
            if amp != 0:
                clean[key] = amp
        object.__setattr__(self, "workspace_dim", workspace_dim)
        object.__setattr__(self, "amps", clean)

    @classmethod
    def _trusted(cls, workspace_dim: int, amps: dict) -> SparseState:
        """A state over amps taken as they are, with no check.

        Only for states derived from already validated terms: every cell
        must lie in the workspace and every amplitude must be a nonzero
        Fraction. The dict becomes the state's own and must not be changed.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "workspace_dim", workspace_dim)
        object.__setattr__(state, "amps", amps)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("SparseState is immutable")

    def items(self):
        return self.amps.items()

    def __len__(self) -> int:
        return len(self.amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseState):
            return NotImplemented
        return self.workspace_dim == other.workspace_dim and self.amps == other.amps


def _require_same_space(a: SparseState, b: SparseState) -> None:
    if a.workspace_dim != b.workspace_dim:
        raise DimensionMismatchError(
            f"workspaces differ: {a.workspace_dim} vs {b.workspace_dim} cells"
        )


def norm_sq(state: SparseState) -> Fraction:
    """Sum of squared amplitudes, exactly."""
    return sum((amp * amp for amp in state.amps.values()), Fraction(0))


def inner_product(a: SparseState, b: SparseState) -> Fraction:
    """Real inner product over the shared support."""
    _require_same_space(a, b)
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    total = Fraction(0)
    for key, amp in small.items():
        other = large.amps.get(key)
        if other is not None:
            total += amp * other
    return total


def distance_sq(a: SparseState, b: SparseState) -> Fraction:
    """Squared Euclidean distance between two states."""
    _require_same_space(a, b)
    return norm_sq(a) + norm_sq(b) - 2 * inner_product(a, b)


def measure_register(state: SparseState, width: int) -> dict[int, Fraction]:
    """Exact outcome distribution for the first `width` workspace cells.

    The workspace size must be divisible by 2**width; probabilities sum to
    norm_sq(state), which is 1 for unit states.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    block = 2**width
    if state.workspace_dim % block != 0:
        raise DimensionMismatchError(
            f"workspace of size {state.workspace_dim} cannot be split into "
            f"{block} outcome blocks"
        )
    stride = state.workspace_dim // block
    probs: dict[int, Fraction] = {}
    for (_lidx, _aidx, ws), amp in state.items():
        outcome = ws // stride
        probs[outcome] = probs.get(outcome, Fraction(0)) + amp * amp
    return probs
