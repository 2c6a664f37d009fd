"""Multiple-block ordered search instances.

An instance is a vector of M step positions, one per block of size N = 2**n.
Block j's characteristic string is 0^(s_j - 1) 1^(N - s_j + 1): querying a
location answers whether that location is at or past the step (the oracle,
model._answer_table, applies this rule to a query list). The target
function returns the last p bits of the step's n-bit name.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured instance budget."""


def bin_n(width: int, rank: int) -> str:
    """The lexicographically rank-th n-bit string, counting from 1.

    bin_n(n, 1) is all zeros and bin_n(n, 2**n) is all ones.
    """
    if width < 0:
        raise ValueError("width must be non-negative")
    if not 1 <= rank <= 2**width:
        raise ValueError(f"rank {rank} outside 1..2^{width}")
    return format(rank - 1, f"0{width}b") if width else ""


def rank_of(bits: str) -> int:
    """Inverse of bin_n: the 1-based lexicographic rank of a bit string."""
    if bits.strip("01"):
        raise ValueError(f"not a bit string: {bits!r}")
    return (int(bits, 2) if bits else 0) + 1


class StepInstance:
    """One input to the M-block problem: a step position per block.

    names holds each block's n-bit step name, formatted once here, since
    every coder and advice function reads them. Instances compare and hash
    by (M, n, steps). The constructor checks everything; _named builds an
    instance from steps and names its caller already holds.
    """

    __slots__ = ("M", "n", "steps", "names")

    def __init__(self, M: int, n: int, steps: tuple[int, ...]):
        if M < 1 or n < 1:
            raise ValueError("need M >= 1 and n >= 1")
        try:
            self.steps = tuple(map(operator.index, steps))
        except TypeError:
            raise ValueError(f"steps must be integers, got {steps!r}") from None
        if len(self.steps) != M:
            raise ValueError(f"expected {M} steps, got {len(self.steps)}")
        size = 2**n
        for s in self.steps:
            if not 1 <= s <= size:
                raise ValueError(f"step {s} outside 1..{size}")
        self.M, self.n = M, n
        spec = f"0{n}b"
        self.names = tuple(format(s - 1, spec) for s in self.steps)

    @classmethod
    def _named(cls, M: int, n: int, steps: tuple[int, ...], names: tuple[str, ...]):
        """An instance from M int steps in 1..2**n and their n-bit names,
        which the caller vouches for: nothing is checked or formatted."""
        instance = cls.__new__(cls)
        instance.M, instance.n, instance.steps, instance.names = M, n, steps, names
        return instance

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.M, self.n, self.steps) == (other.M, other.n, other.steps)

    def __hash__(self) -> int:
        return hash((self.M, self.n, self.steps))

    def __repr__(self) -> str:
        return f"StepInstance(M={self.M!r}, n={self.n!r}, steps={self.steps!r})"

    def step(self, block: int) -> int:
        if not 1 <= block <= self.M:
            raise ValueError(f"block {block} outside 1..{self.M}")
        return self.steps[block - 1]

    def step_bits(self, block: int) -> str:
        """n-bit name of the block's step."""
        if not 1 <= block <= self.M:
            raise ValueError(f"block {block} outside 1..{self.M}")
        return self.names[block - 1]

    def literal(self) -> str:
        """The instance as a literal like "M=2 n=3 steps=3,7" (see parse_instance)."""
        steps = ",".join(str(s) for s in self.steps)
        return f"M={self.M} n={self.n} steps={steps}"


def parse_instance(text: str) -> StepInstance:
    """Parse a literal like "M=2 n=3 steps=3,7" (inverse of StepInstance.literal).

    Each of M, n and steps must appear exactly once; any other key is refused.
    """
    fields = {}
    for token in text.split():
        if "=" not in token:
            raise ValueError(f"bad token {token!r} in instance literal")
        key, _, value = token.partition("=")
        if key not in ("M", "n", "steps"):
            raise ValueError(f"unknown key {key!r} in instance literal")
        if key in fields:
            raise ValueError(f"key {key!r} repeated in instance literal")
        fields[key] = value
    try:
        M = int(fields["M"])
        n = int(fields["n"])
        steps = tuple(int(s) for s in fields["steps"].split(","))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"cannot parse instance literal {text!r}") from exc
    return StepInstance(M, n, steps)


def eval_G(instance: StepInstance, block: int, p: int) -> str:
    """Target value for a block: the last p bits of its step's n-bit name."""
    if not 1 <= p <= instance.n:
        raise ValueError(f"output width {p} outside 1..{instance.n}")
    return instance.step_bits(block)[-p:]


def enumerate_instances(
    M: int, n: int, budget: int | None = None
) -> Iterator[StepInstance]:
    """All instances in lexicographic step order, guarded by a count budget.

    The budget is checked when the sweep is requested, not when it is first
    iterated; nothing else is done then. There are 2**(M*n) instances, so a
    sweep with M*n at or past the budget's bit length is refused without
    computing that count. Iterating the sweep formats the N step names once,
    into a table, and builds each instance from its steps and their names
    in that table (StepInstance._named), so no name is formatted twice.
    """
    if budget is not None and M * n >= budget.bit_length():
        raise BudgetExceededError(
            f"2^{M * n} instances at M={M}, n={n} exceed budget {budget}"
        )
    return _sweep(M, n)


def _sweep(M: int, n: int) -> Iterator[StepInstance]:
    if M < 1 or n < 1:
        raise ValueError("need M >= 1 and n >= 1")
    # both products run in the same lexicographic order, steps beside names
    size = 2**n
    spec = f"0{n}b"
    table = [format(rank, spec) for rank in range(size)]
    yield from map(
        StepInstance._named,
        itertools.repeat(M),
        itertools.repeat(n),
        itertools.product(range(1, size + 1), repeat=M),
        itertools.product(table, repeat=M),
    )
