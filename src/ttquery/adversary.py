"""Inner-product lower bound for advised single-block search.

Steps that share an advice string cannot all be told apart cheaply: the
final states of consecutive steps in one advice class overlap by an
amount the query count controls. They are model.overlap's inner products
of post-oracle states: the final transform permutes the workspace within
each fiber, so it keeps every inner product. Summing those overlaps gives
a quantity squeezed between a structural floor, which holds for any
machine, and a correctness ceiling, which holds when the machine meets its
error tolerance. Everything except the one square root is exact rational
arithmetic; that root is bracketed between rationals and the bracket
width is the only tolerance in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .model import ModelError, overlap
from .ordered_search import StepInstance
from .statevec import as_rational, checked_epsilon

TOLERANCE = Fraction(1, 10**9)
_SCALE = 10**12


class PartitionError(ValueError):
    """Partition shape problems, such as a selected class with one step."""


class AdvicePartition(NamedTuple):
    """Steps grouped by advice string, with one large class selected.

    classes maps each observed advice string to its steps in increasing
    order. The selected class is the lexicographically smallest advice
    string whose class holds at least N / 2^k steps; one always exists.
    steps is the selected class's steps.
    """

    n: int
    k: int
    classes: tuple[tuple[str, tuple[int, ...]], ...]
    selected: str
    steps: tuple[int, ...]

    @property
    def b(self) -> int:
        return len(self.steps)


def partition_by_advice(computer, advice_fn) -> AdvicePartition:
    """Group all N steps of a one-block problem by their advice string."""
    if computer.M != 1:
        raise PartitionError("partitioning needs a single-block computer")
    n, k = computer.n, computer.advice_len
    classes: dict[str, list[int]] = {}
    for s in range(1, 2**n + 1):
        d = advice_fn(StepInstance(1, n, (s,)))
        classes.setdefault(d, []).append(s)
    selected = min(d for d, steps in classes.items() if len(steps) * 2**k >= 2**n)
    return AdvicePartition(
        n=n,
        k=k,
        classes=tuple((d, tuple(v)) for d, v in sorted(classes.items())),
        selected=selected,
        steps=tuple(classes[selected]),
    )


def sqrt_bracket(x):
    """Rationals (lo, hi) with lo <= sqrt(x) <= hi and hi - lo <= 1/_SCALE.

    When x is the square of a rational the bracket collapses to a point,
    so perfect squares (zero included) come back exact.
    """
    x = as_rational(x)
    if x < 0:
        raise ValueError("no real square root")
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        root = Fraction(rn, rd)
        return root, root
    r = isqrt(num * den * _SCALE * _SCALE)
    return Fraction(r, den * _SCALE), Fraction(r + 1, den * _SCALE)


class ZetaReport(NamedTuple):
    """Both sides of the overlap sandwich for one advice class.

    zeta and the pair overlaps are exact. The structural floor
    (b - 1) - T needs no assumptions about the machine. implied_from_zeta
    rearranges that floor into a query bound, again exact. The
    correctness ceiling involves sqrt(eps (1 - eps)); pair_cap and
    implied_closed carry conservative rational brackets of it, and
    pairs_ok / upper_ok are the toleranced comparisons, meaningful only
    for machines that actually meet the error tolerance.
    """

    zeta: Fraction
    b: int
    T: int
    pairs: tuple[Fraction, ...]
    lower_bound: Fraction
    structural_ok: bool
    implied_from_zeta: Fraction
    pair_cap: Fraction
    pairs_ok: bool
    upper_value: Fraction
    upper_ok: bool
    implied_closed: Fraction


def zeta(computer, partition: AdvicePartition, epsilon=Fraction(0)) -> ZetaReport:
    """Sum of consecutive final-state overlaps within the selected class.
    A multi-block computer raises PartitionError, one of another n ModelError."""
    epsilon = as_rational(epsilon)
    steps = partition.steps
    b = len(steps)
    if b < 2:
        raise PartitionError("selected class needs at least two steps")
    if computer.M != 1:
        raise PartitionError("single-block states only")
    if partition.n != computer.n:
        raise ModelError("instance shape disagrees with computer")
    d = partition.selected
    pairs = tuple(
        abs(overlap(computer, 1, d, (s,), (t,))) for s, t in zip(steps, steps[1:])
    )
    z = sum(pairs, Fraction(0))
    lower = Fraction(b - 1 - computer.T)
    lo, hi = sqrt_bracket(epsilon * (1 - epsilon))
    cap = 2 * hi + TOLERANCE
    upper = 2 * hi * (b - 1)
    return ZetaReport(
        zeta=z,
        b=b,
        T=computer.T,
        pairs=pairs,
        lower_bound=lower,
        structural_ok=z >= lower,
        implied_from_zeta=(b - 1) - z,
        pair_cap=cap,
        pairs_ok=all(v <= cap for v in pairs),
        upper_value=upper,
        upper_ok=z <= upper + TOLERANCE,
        implied_closed=(1 - 2 * hi) * (b - 1),
    )


def adversary_bound(N: int, k: int, epsilon) -> Fraction:
    """Query floor (1 - 2 sqrt(eps (1 - eps))) (ceil(N / 2^k) - 1).

    The selected advice class holds a whole number of steps, at least
    ceil(N / 2^k) of them and never fewer than one, so the floor is never
    negative, even when k > n. Exact at epsilon = 0. Otherwise returned
    as a rational within 10^-9 of the true value, the one approximate
    quantity in the package.
    """
    epsilon = checked_epsilon(epsilon)
    if N < 1 or k < 0:
        raise ValueError("N must be positive and k nonnegative")
    lo, hi = sqrt_bracket(epsilon * (1 - epsilon))
    mid = (lo + hi) / 2
    return (1 - 2 * mid) * (-(-N // 2**k) - 1)
