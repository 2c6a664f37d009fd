"""Exact rational states over products of registers.

States are sparse maps from composite basis keys to rational amplitudes,
with norms, inner products, distances and measurement. Nothing here
touches floating point: every amplitude and probability is a
`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Rational = Fraction

BasisKey = tuple


class DimensionMismatchError(ValueError):
    """Operands live in different register spaces."""


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


def _normalize_key(key, nregs: int) -> BasisKey:
    if isinstance(key, int):
        key = (key,)
    key = tuple(key)
    if len(key) != nregs:
        raise DimensionMismatchError(
            f"basis key {key!r} has {len(key)} entries, state has {nregs} registers"
        )
    return key


class SparseState:
    """Sparse amplitude map over a product of registers.

    `dims` gives the size of each register; keys are tuples with one basis
    index per register. Zero amplitudes are dropped on construction, and
    instances are treated as immutable once built.
    """

    __slots__ = ("dims", "amps")

    def __init__(self, dims: Sequence[int], amps: Mapping):
        dims = tuple(int(d) for d in dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"invalid register dimensions {dims!r}")
        clean: dict[BasisKey, Fraction] = {}
        for key, amp in amps.items():
            key = _normalize_key(key, len(dims))
            for idx, d in zip(key, dims):
                if not 0 <= idx < d:
                    raise DimensionMismatchError(
                        f"basis index {idx} out of range for register of size {d}"
                    )
            amp = as_rational(amp)
            if amp != 0:
                if key in clean:
                    raise ValueError(f"duplicate basis key {key!r}")
                clean[key] = amp
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparseState is immutable")

    def get(self, key) -> Fraction:
        return self.amps.get(_normalize_key(key, len(self.dims)), Fraction(0))

    def items(self):
        return self.amps.items()

    def __len__(self) -> int:
        return len(self.amps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseState):
            return NotImplemented
        return self.dims == other.dims and self.amps == other.amps

    def __repr__(self) -> str:
        terms = ", ".join(
            f"{key}: {rational_str(amp)}" for key, amp in sorted(self.amps.items())
        )
        return f"SparseState(dims={self.dims}, {{{terms}}})"


def _require_same_space(a: SparseState, b: SparseState) -> None:
    if a.dims != b.dims:
        raise DimensionMismatchError(f"register spaces differ: {a.dims} vs {b.dims}")


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


def measure_register(
    state: SparseState, register: int, width: int
) -> dict[int, Fraction]:
    """Exact outcome distribution for the first `width` cells of a register.

    The register size must be divisible by 2**width; probabilities sum to
    norm_sq(state), which is 1 for unit states.
    """
    if not 0 <= register < len(state.dims):
        raise DimensionMismatchError(f"no register {register} in {state.dims}")
    if width < 0:
        raise ValueError("width must be non-negative")
    reg = state.dims[register]
    block = 2**width
    if reg % block != 0:
        raise DimensionMismatchError(
            f"register of size {reg} cannot be split into {block} outcome blocks"
        )
    stride = reg // block
    probs: dict[int, Fraction] = {}
    for key, amp in state.items():
        outcome = key[register] // stride
        probs[outcome] = probs.get(outcome, Fraction(0)) + amp * amp
    return probs
