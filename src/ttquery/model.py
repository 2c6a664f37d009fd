"""Truth-table query computers over the block search problem.

A computer fixes its whole query list up front: the prequery state is a
superposition of (query list, workspace) basis terms with an implicit
all-zero answer register. The oracle fills the answer register in one shot,
a final orthogonal transform mixes everything, and the output is read from
the leading cells of the workspace register.

Output cells are ordered least-significant-bit-first: cell j holds the j-th
bit from the end of the answer string. Narrower outputs are then prefixes of
wider ones, so a computer that resolves the full step name also resolves
every last-p-bits coarsening by measuring fewer cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .ordered_search import StepInstance, bin_n, eval_G, rank_of
from .statevec import (
    OrthogonalMatrix,
    SparseState,
    apply_matrix,
    as_rational,
    measure_register,
    rational_str,
)


class QueryWord(NamedTuple):
    """One query: a block index (1-based) and an n-bit location."""

    block: int
    location: str


QueryList = tuple  # tuple[QueryWord, ...]


class ModelError(ValueError):
    """A computer or one of its inputs is malformed."""


def check_word(word: QueryWord, M: int, n: int) -> None:
    if not 1 <= word.block <= M:
        raise ModelError(f"block {word.block} outside 1..{M}")
    if len(word.location) != n or any(b not in "01" for b in word.location):
        raise ModelError(f"bad location {word.location!r} for n={n}")


def word_index(word: QueryWord, M: int, n: int) -> int:
    check_word(word, M, n)
    return (word.block - 1) * 2**n + (rank_of(word.location) - 1)


def list_index(words: QueryList, M: int, n: int) -> int:
    """Lexicographic index of a query list among all (M * N)^T lists."""
    base = M * 2**n
    idx = 0
    for word in words:
        idx = idx * base + word_index(word, M, n)
    return idx


def index_to_list(idx: int, M: int, n: int, T: int) -> QueryList:
    base = M * 2**n
    N = 2**n
    parts = []
    for _ in range(T):
        idx, w = divmod(idx, base)
        block, loc = divmod(w, N)
        parts.append(QueryWord(block + 1, bin_n(n, loc + 1)))
    return tuple(reversed(parts))


def oracle_answers(instance: StepInstance, words: QueryList) -> tuple[int, ...]:
    """Answer bits for a query list, in list order."""
    return tuple(instance.answer(w.block, w.location) for w in words)


def answers_index(bits: Sequence[int]) -> int:
    idx = 0
    for b in bits:
        idx = idx * 2 + b
    return idx


@dataclass(frozen=True)
class PrequeryState:
    """Superposition of (query list, workspace) terms before the oracle.

    The answer register is implicitly all zeros. Every list must have
    exactly T words; the squared amplitudes must sum to 1. The amplitude
    map is read only, so a cached state can be shared.
    """

    T: int
    workspace_dim: int
    amps: Mapping

    def __post_init__(self):
        clean = {}
        for (words, ws), amp in self.amps.items():
            words = tuple(QueryWord(*w) for w in words)
            if len(words) != self.T:
                raise ModelError(
                    f"list {words!r} has {len(words)} words, computer makes {self.T}"
                )
            if not 0 <= ws < self.workspace_dim:
                raise ModelError(f"workspace index {ws} outside 0..{self.workspace_dim - 1}")
            amp = as_rational(amp)
            if amp != 0:
                clean[(words, ws)] = amp
        object.__setattr__(self, "amps", MappingProxyType(clean))

    def norm_sq(self) -> Fraction:
        return sum((a * a for a in self.amps.values()), Fraction(0))

    def items(self):
        return self.amps.items()


class FinalTransform:
    """Orthogonal transform applied after the oracle."""

    def apply(self, state: SparseState) -> SparseState:
        raise NotImplementedError


class MatrixFinal(FinalTransform):
    """Final transform given as an explicit dense orthogonal matrix."""

    def __init__(self, matrix: OrthogonalMatrix):
        self.matrix = matrix

    def apply(self, state: SparseState) -> SparseState:
        return apply_matrix(self.matrix, state)


class PermutationFinal(FinalTransform):
    """Final transform given as a basis permutation.

    The function must be a bijection on (list index, answer index, workspace
    index) keys; orthogonality is then exact by construction. Collisions on
    the support of any applied state are rejected, which witnesses
    injectivity on every subspace the transform actually touches.
    """

    def __init__(self, fn: Callable[[tuple], tuple]):
        self.fn = fn

    def apply(self, state: SparseState) -> SparseState:
        out = {}
        for key, amp in state.items():
            new_key = tuple(self.fn(key))
            if new_key in out:
                raise ModelError(f"permutation collides on {new_key!r}")
            out[new_key] = amp
        return SparseState(state.dims, out)


@dataclass
class NonadaptiveComputer:
    """A truth-table query computer for the M-block problem over n-bit blocks.

    `prequery(i, advice)` builds the state for input block i; `final` is the
    closing orthogonal transform. The workspace register has dimension
    2**output_width * scratch_dim, with the output cells in front.

    The computer caches what it derives from its prequery states, so
    `prequery` must be a pure function of (block, advice): it is called at
    most once per pair. `prequery_state` keeps each validated state, and
    `weight_analyses` holds the compression coder's weight analyses, built
    on first use. Both belong to this computer alone; the cached states and
    analyses are shared by every caller and must be treated as read only.
    """

    M: int
    n: int
    T: int
    advice_len: int
    output_width: int
    scratch_dim: int
    prequery: Callable[[int, str], PrequeryState]
    final: FinalTransform
    _states: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    weight_analyses: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def N(self) -> int:
        return 2**self.n

    @property
    def workspace_dim(self) -> int:
        return 2**self.output_width * self.scratch_dim

    @property
    def list_space(self) -> int:
        return (self.M * self.N) ** self.T

    def state_dims(self) -> tuple[int, int, int]:
        return (self.list_space, 2**self.T, self.workspace_dim)

    def prequery_state(self, block: int, advice: str) -> PrequeryState:
        """The validated prequery state of (block, advice), built once."""
        pre = self._states.get((block, advice))
        if pre is not None:
            return pre
        if not 1 <= block <= self.M:
            raise ModelError(f"input block {block} outside 1..{self.M}")
        if len(advice) != self.advice_len:
            raise ModelError(
                f"advice {advice!r} has {len(advice)} bits, computer expects {self.advice_len}"
            )
        pre = self.prequery(block, advice)
        if pre.T != self.T or pre.workspace_dim != self.workspace_dim:
            raise ModelError("prequery state shape disagrees with computer")
        for words, _ws in pre.amps:
            for word in words:
                check_word(word, self.M, self.n)
        self._states[(block, advice)] = pre
        return pre


@dataclass
class AdviceFunction:
    """Classical advice: a fixed-length bit string per instance."""

    length: int
    fn: Callable[[StepInstance], str]

    def __call__(self, instance: StepInstance) -> str:
        bits = self.fn(instance)
        if len(bits) != self.length or any(b not in "01" for b in bits):
            raise ModelError(f"advice {bits!r} is not a {self.length}-bit string")
        return bits


def no_advice() -> AdviceFunction:
    return AdviceFunction(0, lambda instance: "")


def apply_oracle(
    computer: NonadaptiveComputer, pre: PrequeryState, instance: StepInstance
) -> SparseState:
    """Fill the answer register according to the instance, per basis term."""
    if instance.M != computer.M or instance.n != computer.n:
        raise ModelError("instance shape disagrees with computer")
    dims = computer.state_dims()
    amps = {}
    for (words, ws), amp in pre.items():
        answers = oracle_answers(instance, words)
        key = (list_index(words, computer.M, computer.n), answers_index(answers), ws)
        amps[key] = amps.get(key, Fraction(0)) + amp
    return SparseState(dims, amps)


def outcome_to_answer(outcome: int, width: int) -> str:
    """Measured cell block to answer string (cells are LSB-first)."""
    return format(outcome, f"0{width}b")[::-1] if width else ""


def answer_to_outcome(answer: str) -> int:
    return int(answer[::-1], 2) if answer else 0


def run(
    computer: NonadaptiveComputer,
    block: int,
    advice: str,
    instance: StepInstance,
    width: int | None = None,
) -> dict[str, Fraction]:
    """Exact distribution over answer strings read from the output cells."""
    if width is None:
        width = computer.output_width
    if not 1 <= width <= computer.output_width:
        raise ModelError(
            f"cannot read {width} cells from a {computer.output_width}-cell output"
        )
    pre = computer.prequery_state(block, advice)
    after = apply_oracle(computer, pre, instance)
    final = computer.final.apply(after)
    probs = measure_register(final, 2, width)
    # Outcome blocks of the workspace register split as output cells first.
    # The leading `width` cells survive; translate to answer strings.
    out: dict[str, Fraction] = {}
    for outcome, prob in probs.items():
        # measure_register already grouped by the leading 2**width split of
        # the whole register, which is exactly the first `width` cells.
        out_answer = outcome_to_answer(outcome, width)
        out[out_answer] = out.get(out_answer, Fraction(0)) + prob
    return out


def error_probability(
    computer: NonadaptiveComputer,
    advice_fn: AdviceFunction,
    p: int,
    instance: StepInstance,
    block: int,
) -> Fraction:
    """1 minus the probability mass on the correct last-p-bits answer."""
    advice = advice_fn(instance)
    dist = run(computer, block, advice, instance, width=p)
    correct = eval_G(instance, block, p)
    return Fraction(1) - dist.get(correct, Fraction(0))


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


def validate_computer(
    computer: NonadaptiveComputer, pairs: Sequence[tuple[int, str]]
) -> None:
    """Check unit norm and list lengths of the prequery states for given inputs."""
    for block, advice in pairs:
        pre = computer.prequery_state(block, advice)
        if pre.norm_sq() != 1:
            raise ModelError(
                f"prequery norm^2 is {rational_str(pre.norm_sq())} for input "
                f"({block}, {advice!r})"
            )


def materialize_final_matrix(computer: NonadaptiveComputer) -> OrthogonalMatrix:
    """Dense matrix form of the final transform, for small register spaces.

    Useful to cross-check that a permutation-backed transform really is
    orthogonal, and to serialize small computers.
    """
    dims = computer.state_dims()
    total = dims[0] * dims[1] * dims[2]
    if total > 4096:
        raise ModelError(f"register space of size {total} is too large to materialize")
    if isinstance(computer.final, MatrixFinal):
        return computer.final.matrix
    cols = []
    for flat in range(total):
        rest, ws = divmod(flat, dims[2])
        lidx, aidx = divmod(rest, dims[1])
        image = computer.final.apply(SparseState.basis(dims, (lidx, aidx, ws)))
        cols.append(image)
    rows = [[Fraction(0)] * total for _ in range(total)]
    for j, image in enumerate(cols):
        for (lidx, aidx, ws), amp in image.items():
            rows[(lidx * dims[1] + aidx) * dims[2] + ws][j] = amp
    return OrthogonalMatrix(rows)


def _final_fiber_table(computer: NonadaptiveComputer, prequery_states) -> dict | None:
    """Per-fiber workspace permutations of the final transform, if it has them.

    A fiber is one (list index, answer index) pair; many transforms, the
    built-in subjects included, only rewrite the workspace cell within each
    fiber. Such transforms serialize as a small table over the fibers
    reachable from the tabulated prequery states. Returns None when some
    reachable image leaves its fiber.
    """
    dims = computer.state_dims()
    wdim = computer.workspace_dim
    fibers = set()
    for pre in prequery_states:
        for (words, _ws), _amp in pre.items():
            lidx = list_index(words, computer.M, computer.n)
            for aidx in range(2**computer.T):
                fibers.add((lidx, aidx))
    table = {}
    for lidx, aidx in sorted(fibers):
        images = []
        for ws in range(wdim):
            out = computer.final.apply(SparseState.basis(dims, (lidx, aidx, ws)))
            ((key, amp),) = out.items()
            if key[:2] != (lidx, aidx) or amp != 1:
                return None
            images.append(key[2])
        if images != list(range(wdim)):
            table[f"{lidx},{aidx}"] = images
    return table


def computer_to_doc(
    computer: NonadaptiveComputer, inputs: Sequence[tuple[int, str]]
) -> dict:
    """Serialize a computer: prequery table for the given inputs, then V.

    The final transform is stored as per-fiber workspace permutations when
    it never moves amplitude between (list, answers) fibers, which covers
    every built-in subject at any size. Otherwise it is stored as a dense
    rational matrix, which only fits genuinely small register spaces.
    """
    table = {}
    states = []
    for block, advice in inputs:
        pre = computer.prequery_state(block, advice)
        states.append(pre)
        rows = []
        for (words, ws), amp in sorted(
            pre.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            rows.append(
                [
                    rational_str(amp),
                    [[w.block, w.location] for w in words],
                    ws,
                ]
            )
        table[f"{block}|{advice}"] = rows
    fiber_table = _final_fiber_table(computer, states)
    if fiber_table is not None:
        final_doc = {"form": "fibers", "table": fiber_table}
    else:
        matrix = materialize_final_matrix(computer)
        final_doc = [[rational_str(x) for x in row] for row in matrix.rows]
    return {
        "M": computer.M,
        "n": computer.n,
        "T": computer.T,
        "k": computer.advice_len,
        "p": computer.output_width,
        "scratch": computer.scratch_dim,
        "prequery": table,
        "final": final_doc,
    }


def _final_from_doc(final_doc, ws_dim: int) -> FinalTransform:
    if isinstance(final_doc, Mapping):
        if final_doc.get("form") != "fibers":
            raise ModelError(f"unknown final transform form {final_doc.get('form')!r}")
        fiber_map = {}
        for key, images in final_doc.get("table", {}).items():
            lidx_text, _, aidx_text = key.partition(",")
            images = [int(v) for v in images]
            if sorted(images) != list(range(ws_dim)):
                raise ModelError(f"fiber {key} is not a workspace permutation")
            fiber_map[(int(lidx_text), int(aidx_text))] = images

        def fn(key):
            lidx, aidx, ws = key
            images = fiber_map.get((lidx, aidx))
            return (lidx, aidx, images[ws] if images else ws)

        return PermutationFinal(fn)
    return MatrixFinal(OrthogonalMatrix(final_doc))


def computer_from_doc(doc: Mapping) -> NonadaptiveComputer:
    """Load a computer from its serialized form (inverse of computer_to_doc)."""
    M, n, T = int(doc["M"]), int(doc["n"]), int(doc["T"])
    advice_len = int(doc["k"])
    output_width = int(doc["p"])
    scratch_dim = int(doc["scratch"])
    ws_dim = 2**output_width * scratch_dim
    table = {}
    for key, rows in doc["prequery"].items():
        block_text, _, advice = key.partition("|")
        amps = {}
        for amp, words, ws in rows:
            qlist = tuple(QueryWord(int(b), str(loc)) for b, loc in words)
            amps[(qlist, int(ws))] = as_rational(amp)
        table[(int(block_text), advice)] = PrequeryState(T, ws_dim, amps)

    def prequery(block: int, advice: str) -> PrequeryState:
        try:
            return table[(block, advice)]
        except KeyError:
            raise ModelError(f"no prequery row for input ({block}, {advice!r})")

    final = _final_from_doc(doc["final"], ws_dim)
    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=T,
        advice_len=advice_len,
        output_width=output_width,
        scratch_dim=scratch_dim,
        prequery=prequery,
        final=final,
    )
    if isinstance(final, MatrixFinal):
        expected = computer.list_space * 2**T * ws_dim
        if final.matrix.dim != expected:
            raise ModelError(
                f"final matrix dim {final.matrix.dim} does not match register "
                f"space {expected}"
            )
    validate_computer(computer, list(table))
    return computer


def advice_from_doc(doc: Mapping) -> AdviceFunction:
    """Advice given as a table keyed by instance literals."""
    length = int(doc["length"])
    table = {key: str(value) for key, value in doc.get("table", {}).items()}

    def fn(instance: StepInstance) -> str:
        literal = instance.literal()
        if length == 0:
            return ""
        try:
            return table[literal]
        except KeyError:
            raise ModelError(f"no advice entry for {literal!r}")

    return AdviceFunction(length, fn)


def advice_to_doc(advice_fn: AdviceFunction, instances) -> dict:
    """Tabulate advice over the given instances (inverse of advice_from_doc)."""
    table = {inst.literal(): advice_fn(inst) for inst in instances}
    if advice_fn.length == 0:
        table = {}
    return {"length": advice_fn.length, "table": table}
