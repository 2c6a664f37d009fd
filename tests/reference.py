"""The straight paths the library's cached and one-pass paths are tested
against, one per concept.

Each reads a computer only through its validated prequery mapping,
`prequery_state(...).amps`, and applies each rule as stated, so none
shares the answer tables, the cached oracle terms, the round count or the
weight analyses with the code under test. `straight_run` (apply_oracle,
final_apply, measure_register) is the reference for model.run, and
`inner_product` of two oracle states the one for model.overlap;
`straight_weights`, `straight_analysis` and `straight_profile` are those
for the coder's weights and profiles, and `direct_rounds` and
`straight_select` those for its selection. `error_probability` and
`max_error` are a computer's error over a sweep, read through model.run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil
from typing import Mapping, Sequence

from ttquery.compression import LwssResult, Rounds
from ttquery.model import (
    AdviceFunction,
    FiberFinal,
    ModelError,
    NonadaptiveComputer,
    _check_thresholds,
    list_index,
    outcome_to_answer,
    run,
)
from ttquery.ordered_search import StepInstance, eval_G, rank_of
from ttquery.statevec import ZERO


def threshold_answers(words, steps: Sequence[int]) -> int:
    """Answer index of the query list words under thresholds steps: a word
    answers 1 exactly when its rank is at or past its block's threshold,
    and the bits, in list order, are read as a binary number."""
    index = 0
    for j, rank in _ranks(words):
        index = 2 * index + (rank >= steps[j])
    return index


# neither a list's index nor its words' ranks depend on the thresholds, so
# each list is parsed once
_list_index = lru_cache(maxsize=None)(list_index)


@lru_cache(maxsize=None)
def _ranks(words) -> tuple:
    """(block - 1, rank) of every word of a query list, in list order."""
    return tuple((word.block - 1, rank_of(word.location)) for word in words)


def apply_oracle(
    computer: NonadaptiveComputer, block: int, advice: str, steps: Sequence[int]
) -> dict:
    """The post-oracle state of input (block, advice) under thresholds steps.

    Every term of the validated mapping keeps its amplitude and lands on
    (list_index, threshold_answers, ws); distinct terms have distinct
    (words, ws), so no two share a key.
    """
    _check_thresholds(computer, steps)
    M, n = computer.M, computer.n
    return {
        (_list_index(words, M, n), threshold_answers(words, steps), ws): amp
        for (words, ws), amp in computer.prequery_state(block, advice).amps.items()
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
        raise ModelError(
            f"workspace of size {workspace_dim} cannot be split into "
            f"{block} outcome blocks"
        )
    stride = workspace_dim // block
    probs: dict[int, Fraction] = {}
    for (_lidx, _aidx, ws), amp in state.items():
        outcome, square = ws // stride, amp * amp
        probs[outcome] = probs[outcome] + square if outcome in probs else square
    return probs


def straight_run(
    computer: NonadaptiveComputer, block: int, advice: str, steps: Sequence[int]
) -> dict[int, dict[str, Fraction]]:
    """{width: the distribution over answer strings that model.run returns
    at that width}, for every width 1..output_width, built state by state:
    the oracle, the final, then the measurement of the leading cells."""
    dim = computer.workspace_dim
    final = final_apply(computer.final, apply_oracle(computer, block, advice, steps), dim)
    return {
        width: {
            outcome_to_answer(outcome, width): prob
            for outcome, prob in measure_register(final, dim, width).items()
        }
        for width in range(1, computer.output_width + 1)
    }


def straight_weights(computer: NonadaptiveComputer, block: int, advice: str, p: int) -> dict:
    """(j, leading n - p bits) -> summed weight: each list's distinct words,
    each weighing its term's squared amplitude."""
    cut = computer.n - p
    acc: dict = {}
    for (words, _ws), amp in computer.prequery_state(block, advice).amps.items():
        for word in set(words):
            key = (word.block, word.location[:cut])
            acc[key] = acc.get(key, ZERO) + amp * amp
    return acc


def straight_analysis(computer: NonadaptiveComputer, block: int, advice: str, p: int, C):
    """(weights, heavy, own mass) of input (block, advice) at cut p: heavy
    lists, sorted, the block's own prefixes weighted strictly above C, and
    the own mass sums the block's own weights."""
    table = straight_weights(computer, block, advice, p)
    own = {prefix: w for (j, prefix), w in table.items() if j == block}
    heavy = tuple(sorted(prefix for prefix, w in own.items() if w > C))
    return table, heavy, sum(own.values(), ZERO)


def straight_profile(computer: NonadaptiveComputer, advice: str, names, p: int, C) -> tuple:
    """(block, prefix, good, rank) of every block: good when the weight of
    its name's leading n - p bits is above C, ranked by its index in heavy."""
    blocks = []
    for i, name in enumerate(names, 1):
        table, heavy, _own = straight_analysis(computer, i, advice, p, C)
        prefix = name[: computer.n - p]
        good = table.get((i, prefix), ZERO) > C
        blocks.append((i, prefix, good, heavy.index(prefix) if good else None))
    return tuple(blocks)


def round_verdict(T: int, C: Fraction, pool: int, m: int) -> bool:
    """Whether m is the selection's round count over pool bad blocks with
    T queries and threshold C: the largest m with
    t m^2 - (t - 1) m - pool <= 0, t = T / C, for which
    C * pool <= T * (m + 1)^2 also holds; 0 with no queries or no pool."""
    if T == 0 or not pool:
        return m == 0
    t = Fraction(T) / C

    def quad(x):
        return t * x * x - (t - 1) * x - pool

    return quad(m) <= 0 < quad(m + 1) and C * pool <= T * (m + 1) ** 2


@lru_cache(maxsize=None)
def direct_rounds(T: int, C: Fraction, pool: int) -> Rounds:
    """The selection's schedule over pool bad blocks with T queries and
    threshold C: m found by scanning the quadratic, the threshold C / m,
    the verdict on m and the floors ceil(pool - t m i) for i in 0..m."""
    t = Fraction(T) / C
    m = 0
    if T and pool:
        while t * (m + 1) ** 2 - (t - 1) * (m + 1) - pool <= 0:
            m += 1
    floors = tuple(ceil(pool - t * m * i) for i in range(m + 1))
    return Rounds(m, C / m if m else None, round_verdict(T, C, pool, m), floors)


def straight_select(coder, advice: str, bad_prefixes: Mapping[int, str]) -> LwssResult:
    """The selection over bad_prefixes, {block: prefix}, on the schedule of
    direct_rounds: each round picks the smallest candidate not yet picked
    and keeps the candidates whose prefix its straight weights put below
    the threshold."""
    ctx = coder.ctx
    pool = sorted(bad_prefixes)
    m, threshold, _ok, _floors = direct_rounds(ctx.T, ctx.C, len(pool))
    survivors, picked, sizes, tables = pool, [], [len(pool)], {}
    for _ in range(m):
        pivot = next(j for j in survivors if j not in picked)
        picked.append(pivot)
        tables[pivot] = straight_weights(coder.computer, pivot, advice, ctx.p)
        survivors = [
            j for j in survivors if tables[pivot].get((j, bad_prefixes[j]), ZERO) < threshold
        ]
        sizes.append(len(survivors))
    crosses = tuple(
        (a, b, tables[a].get((b, bad_prefixes[b]), ZERO))
        for pos, a in enumerate(picked)
        for b in picked[pos + 1 :]
    )
    return LwssResult(tuple(picked), tuple(sizes), crosses)


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
