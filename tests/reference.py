"""The state-by-state path, the reference for model.run and model.overlap.

The library reads a run in one pass over an input's cached terms and
builds no state (see ttquery.model). Here a run is built one state at a
time: `apply_oracle` gives the post-oracle dict {(list index, answer
index, ws): amp}, `final_apply` moves each of its cells through the
final's `place`, and `measure_register` reads the leading workspace
cells. `inner_product` of two oracle states is what model.overlap
returns. `max_error` is a computer's worst error over a sweep, read
through model.run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from ttquery.model import (
    AdviceFunction,
    FiberFinal,
    ModelError,
    NonadaptiveComputer,
    _check_thresholds,
    _table_answer,
    run,
)
from ttquery.ordered_search import StepInstance, eval_G
from ttquery.statevec import ZERO, DimensionMismatchError


def apply_oracle(
    computer: NonadaptiveComputer, block: int, advice: str, steps: Sequence[int]
) -> dict:
    """Answer every list of input (block, advice) by per-block thresholds.

    Each list's answer index is read from its cached answer table. The
    state is the dict {(list index, answer index, ws): amp}; its cells and
    amplitudes are the validated input's, nonzero Fractions in the
    workspace, so they are not checked again. The input holds one term per
    entry of its mapping, in the same order, so the two are zipped.
    """
    _check_thresholds(computer, steps)
    cached = computer._cached_input(block, advice)
    # list indices are distinct per query list, so every key is new
    return {
        (lidx, _table_answer(table, steps), ws): amp
        for (lidx, table, ws, _square), amp in zip(cached.terms, cached.amps.values())
    }


def final_apply(final: FiberFinal, state: Mapping, workspace_dim: int) -> dict:
    """The state after the final: every cell moved through `place`, which
    checks the image range and collisions."""
    taken: set = set()
    return {
        final.place(lidx, aidx, ws, workspace_dim, taken): amp
        for (lidx, aidx, ws), amp in state.items()
    }


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


def error_probability(
    computer: NonadaptiveComputer,
    advice_fn: AdviceFunction,
    p: int,
    instance: StepInstance,
    block: int,
) -> Fraction:
    """1 minus the probability mass on the correct last-p-bits answer."""
    if (instance.M, instance.n) != (computer.M, computer.n):
        raise ModelError("instance shape disagrees with computer")
    advice = advice_fn(instance)
    dist = run(computer, block, advice, instance.steps, width=p)
    correct = eval_G(instance, block, p)
    return 1 - dist.get(correct, ZERO)


def max_error(
    computer: NonadaptiveComputer,
    advice_fn: AdviceFunction,
    p: int,
    instances,
    blocks: Sequence[int] | None = None,
) -> Fraction:
    """Worst-case error over the given instances and blocks."""
    if blocks is None:
        blocks = range(1, computer.M + 1)
    worst = None
    for instance in instances:
        for block in blocks:
            err = error_probability(computer, advice_fn, p, instance, block)
            if worst is None or err > worst:
                worst = err
    if worst is None:
        raise ModelError("no instances supplied")
    return worst
