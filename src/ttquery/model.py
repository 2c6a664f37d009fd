"""Truth-table query computers over the block search problem.

A computer fixes its whole query list up front: the prequery state is a
superposition of (query list, workspace) basis terms. The oracle answers
every word of a list in one shot, giving a post-oracle state keyed by
(list index, answer index, workspace cell); a final orthogonal transform
permutes the workspace within each (list index, answer index) fiber
(FiberFinal), and the output is read from the leading workspace cells.
The list and answer indices only label fibers, so the workspace is the
one register with a size.

The oracle takes one threshold per block and answers a word 1 exactly when
its rank is at or past its block's threshold (_answer_table, the only
place this rule is written). An instance's steps are such thresholds; the
compression decoders and audits substitute their own, in 1..N+1, and run
the same machine through `run`.

A prequery function returns its (block, advice) input's superposition as a
plain mapping {(words, ws): amp}. Query words carry n-bit location strings,
which is also how documents store them; a document's rows become the
same mapping, one item per row. NonadaptiveComputer._validated holds the
one set of mapping rules, for both. Each word is parsed once: the one
pass that validates a mapping (see NonadaptiveComputer.prequery_state)
makes a MachineInput, which holds the read-only mapping and its oracle
terms (list index, the list's answer table, workspace cell, squared
amplitude); `prequery_state` is the one way to read an input. A list's
answers under a threshold depend only on the threshold's class among the
ranks the list queries in that block, so each answer index is a sum of
one table entry per queried block.

Inputs are shared by mapping. An advice string is read in part by each
block's machine, so many (block, advice) pairs return equal mappings;
each distinct mapping is validated once and numbered by its ordinal, and
every pair that returns it reads the one validated input.

`run` and `overlap` are the library's one way to read a run, and neither
builds a state: each is one pass over an input's cached terms. Distinct
terms keep distinct (list index, ws) cells and the answer register starts
fresh, so every term lands in a cell of its own, and the final permutes
within fibers, so it keeps each term's square: a run is the
|amp|^2-mixture of its terms. `run` adds each term's square into the
outcome cell of its image under the final; `overlap`, the inner product
of an input's post-oracle states under two threshold vectors, adds the
squares of the terms whose answer index the two vectors agree on. Each is
memoized by input ordinal and class vectors, so pairs that share a
mapping share their runs and overlaps too; the lemma audit and the
adversary compare states only through `overlap`. These two memos and the
validated inputs are the computer's only caches.

Output cells are ordered least-significant-bit-first: cell j holds the j-th
bit from the end of the answer string. Narrower outputs are then prefixes of
wider ones, so a computer that resolves the full step name also resolves
every last-p-bits coarsening by measuring fewer cells.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .ordered_search import StepInstance, rank_of
from .statevec import ZERO, rational_str


class QueryWord(NamedTuple):
    """One query: a block index (1-based) and an n-bit location."""

    block: int
    location: str


class ModelError(ValueError):
    """A computer or one of its inputs is malformed."""


class MissingEntryError(ModelError):
    """A computer or advice loaded from a document lacks the entry asked for."""


def check_word(word: QueryWord, M: int, n: int) -> None:
    if isinstance(word.block, bool) or not isinstance(word.block, int):
        raise ModelError(f"word block must be an integer, not {word.block!r}")
    if not 1 <= word.block <= M:
        raise ModelError(f"block {word.block} outside 1..{M}")
    location = word.location
    if not isinstance(location, str):
        raise ModelError(f"location {location!r} is not a bit string")
    if len(location) != n or location.strip("01"):
        raise ModelError(f"bad location {location!r} for n={n}")


def _ranked_index(ranked_words, M: int, n: int) -> int:
    """list_index of a query list given as (block, rank) pairs.

    The words are the digits of the index in base M * 2**n, most
    significant first. Neighbouring digits are combined pairwise and the
    base squared each round, so no step multiplies a long partial index by
    a one-digit base, which would make the cost quadratic in T.
    """
    base = M << n
    digits = [((block - 1) << n) + rank - 1 for block, rank in ranked_words]
    while len(digits) > 1:
        if len(digits) % 2:
            digits.insert(0, 0)
        digits = [high * base + low for high, low in zip(digits[::2], digits[1::2])]
        base *= base
    return digits[0] if digits else 0


def list_index(words: tuple[QueryWord, ...], M: int, n: int) -> int:
    """Lexicographic index of a query list among all lists of its length."""
    for word in words:
        check_word(word, M, n)
    return _ranked_index(((w.block, rank_of(w.location)) for w in words), M, n)


def _answer_table(ranked_words) -> tuple:
    """Answer table of a query list, as (block, rank) int pairs.

    This is the one answer rule: word (block, rank) is answered 1 exactly
    when rank >= the block's threshold, and the bits, in list order, are
    read as a binary number. Real instances answer by their steps, the
    decoders by substituted thresholds, both in 1..N+1.

    Under a threshold s, a block's answer bits depend only on its class,
    the number c of the list's distinct ranks in that block that lie below
    s: exactly the words whose rank is one of ranks[c:] answer 1. The table
    holds one (block - 1, ranks, shares) triple per queried block, with
    ranks sorted and shares[c] the block's part of the answer index at
    class c, so the answer index is the sum of one share per block.
    """
    weights: dict[tuple[int, int], int] = {}
    bit = 1 << len(ranked_words)
    for pair in ranked_words:
        bit >>= 1
        weights[pair] = weights.get(pair, 0) + bit
    # walk the ranks downwards, so each share adds one weight to the last
    table = []
    block = ranks = shares = None
    for (word_block, rank), weight in sorted(weights.items(), reverse=True):
        if word_block != block:
            block, ranks, shares = word_block, [], [0]
            table.append((block - 1, ranks, shares))
        ranks.append(rank)
        shares.append(shares[-1] + weight)
    return tuple([(j, tuple(ranks[::-1]), tuple(shares[::-1])) for j, ranks, shares in table[::-1]])


def _table_answer(table, steps: Sequence[int]) -> int:
    """Answer index of a query list's answer table under thresholds steps."""
    answers = 0
    for j, ranks, shares in table:
        answers += shares[bisect_left(ranks, steps[j])]
    return answers


class FiberFinal:
    """The final transform: a permutation of the workspace within each fiber.

    A fiber is one (list index, answer index) pair. `fn(list_index,
    answer_index, ws)` names the image of workspace cell ws; it must be a
    bijection on the workspace of every fiber, which makes the transform
    orthogonal by construction. Collisions on the support of any run are
    rejected, which witnesses injectivity on every subspace the transform
    actually touches. Since fn is caller code, an image outside
    0..workspace_dim - 1 is rejected too. Both rules are stated once, in
    `place`, which `run` calls for every cell it moves.
    """

    def __init__(self, fn: Callable[[int, int, int], int]):
        self.fn = fn

    def place(
        self, lidx: int, aidx: int, ws: int, workspace_dim: int, taken: set
    ) -> tuple:
        """Key (lidx, aidx, image) that cell ws of fiber (lidx, aidx) moves to.

        taken holds the keys placed so far on one run's support; the new
        key is added to it. Raises ModelError if the image lies outside the
        workspace or the key is already taken.
        """
        image = self.fn(lidx, aidx, ws)
        if not 0 <= image < workspace_dim:
            raise ModelError(f"workspace cell {image} outside 0..{workspace_dim - 1}")
        key = (lidx, aidx, image)
        # one hash of the key: a collision leaves the set's size unchanged
        size = len(taken)
        taken.add(key)
        if len(taken) == size:
            raise ModelError(f"final transform collides on {key!r}")
        return key


class MachineInput(NamedTuple):
    """A validated prequery mapping and its oracle terms (prequery_state).

    amps is the read-only mapping {(QueryWords, ws): Fraction} of the
    input's nonzero terms, and terms holds one (list index, answer table,
    ws, amp * amp) tuple per nonzero term, in the mapping's order. bounds
    holds one (block - 1, ranks) pair per block the input queries, ranks
    being the sorted union of the ranks its lists query there. ordinal is
    the input's index among the computer's distinct inputs; every (block,
    advice) pair whose mapping equals this one reads this record, and the
    run and overlap memos are keyed by its ordinal.
    """

    amps: Mapping
    terms: tuple
    bounds: tuple
    ordinal: int

    def classes(self, steps: Sequence[int]) -> tuple:
        """Class vector of thresholds steps: the oracle's answer to every
        list of the input, and so the post-oracle state, depend on steps
        only through it."""
        return tuple([bisect_left(ranks, steps[j]) for j, ranks in self.bounds])


def _exact_items(amps: Mapping) -> tuple:
    """A prequery mapping's items, each with the types of its amplitude,
    workspace cell and word fields beside it.

    Equal values of other types compare and hash alike (1 == 1.0 == True),
    but the checks refuse some of those types, so two mappings share an
    input only when they are equal with every type the same. Raises
    TypeError for a mapping that is not hashable this way.
    """
    chain = itertools.chain.from_iterable
    return tuple(
        (words, ws, amp, type(amp), type(ws), tuple(map(type, chain(words))))
        for (words, ws), amp in amps.items()
    )


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _amplitude(amp) -> Fraction:
    """The one amplitude rule, for prequery functions and JSON rows alike:
    an int or a Fraction that is not a bool, or a "p" / "p/q" string as
    rational_str writes it, made rational; a zero denominator is refused."""
    if isinstance(amp, Fraction):
        return amp
    if isinstance(amp, int) and not isinstance(amp, bool):
        return Fraction(amp)
    if isinstance(amp, str) and _RATIONAL.fullmatch(amp):
        try:
            return Fraction(amp)
        except ZeroDivisionError:
            raise ModelError(f"amplitude {amp!r} has a zero denominator") from None
    raise ModelError(f"amplitude {amp!r} is not an int, a Fraction or a 'p/q' string")


def _query_words(words) -> tuple:
    """A query list's (block, location) pairs as QueryWords, unchecked."""
    try:
        return tuple(QueryWord(*w) for w in words)
    except TypeError:
        bad = "a word that is not a (block, location) pair"
        raise ModelError(f"query list {words!r} holds {bad}") from None


class NonadaptiveComputer:
    """A truth-table query computer for the M-block problem over n-bit blocks.

    `prequery(i, advice)` returns the prequery superposition of input block
    i as a mapping {(words, ws): amp}, words a tuple of T query words and
    ws a workspace cell; `final` is the closing orthogonal transform, a
    workspace permutation per (list, answers) fiber. The workspace
    register has dimension 2**output_width * scratch_dim, with the output
    cells in front.

    The computer caches what it derives from its prequery mappings, so
    `prequery` must be a pure function of (block, advice): it is called at
    most once per pair. `prequery_state` validates each distinct mapping
    once and returns it together with its oracle terms, one `(list_index,
    answer_table, ws, square)` tuple per nonzero term (see _answer_table),
    as one MachineInput with an ordinal; pairs whose mappings are equal
    share that input. Every run and every overlap reads those terms, so no
    query word is parsed and no amplitude squared twice, and a term's
    answer index costs one table entry per queried block. `runs` memoizes
    `run`'s distributions by (ordinal, class vector, width) and `overlaps`
    memoizes `overlap`'s inner products by (ordinal, class vector, class
    vector), all built on first use, so pairs that share an input share
    these too. These caches belong to this computer alone and serve every
    caller, each compression.Coder over it included (a Coder keeps its own
    weight analyses and selections); what they hold is read only.
    """

    def __init__(
        self,
        M: int,
        n: int,
        T: int,
        advice_len: int,
        output_width: int,
        scratch_dim: int,
        prequery: Callable[[int, str], Mapping],
        final: FiberFinal,
    ):
        self.M, self.n, self.T, self.advice_len = M, n, T, advice_len
        self.output_width, self.scratch_dim = output_width, scratch_dim
        self.prequery, self.final = prequery, final
        # (block, advice) -> its input; the mapping's exact items -> its input
        self._states: dict = {}
        self._inputs: dict = {}
        self._ordinals = itertools.count()
        self.runs: dict = {}
        self.overlaps: dict = {}

    @property
    def N(self) -> int:
        return 2**self.n

    @property
    def workspace_dim(self) -> int:
        return 2**self.output_width * self.scratch_dim

    def prequery_state(self, block: int, advice: str) -> MachineInput:
        """The validated input of (block, advice), built once.

        Every error names the input as `prequery input (block, advice)`.
        See _validated for the checks; the input holds the read-only
        mapping of the nonzero terms, as .amps, and its oracle terms. A
        mapping equal to one already validated, item by item and in order,
        with every amplitude, workspace cell and word field of the same type
        (see _exact_items), is not validated again: the pair reads that input.
        Only a valid, hashable mapping is kept for sharing, so a malformed
        one raises for every pair that returns it, whichever pair asks
        first.
        """
        cached = self._states.get((block, advice))
        if cached is None:
            where = f"prequery input ({block}, {advice!r})"
            if not 1 <= block <= self.M:
                raise ModelError(f"{where}: input block {block} outside 1..{self.M}")
            if len(advice) != self.advice_len:
                raise ModelError(
                    f"{where}: advice {advice!r} has {len(advice)} bits, "
                    f"computer expects {self.advice_len}"
                )
            amps = self.prequery(block, advice)
            if not isinstance(amps, Mapping):
                kind = type(amps).__name__
                raise ModelError(f"{where}: the prequery returned a {kind}, not a mapping")
            try:
                key = _exact_items(amps)
                cached = self._inputs.get(key)
            except (TypeError, ValueError):
                # an unhashable or misshapen mapping is validated, and shared with no pair
                key = None
            if cached is None:
                try:
                    cached = self._validated(amps)
                except ModelError as e:
                    raise ModelError(f"{where}: {e}") from None
                if key is not None:
                    self._inputs[key] = cached
            self._states[(block, advice)] = cached
        return cached

    def _validated(self, amps: Mapping) -> MachineInput:
        """Check a prequery mapping and derive its oracle terms, in one pass.

        These are the mapping rules, for prequery functions and document
        rows alike. Every key must be a (words, ws) pair, its list must
        have T words, its cell must be an int, not a bool, in the
        workspace, and its amplitude is made rational (see _amplitude).
        Words, (block, location) pairs, become QueryWords that check_word
        accepts; then a zero term is dropped, adding no term or rank. The
        nonzero terms' distinct words are ranked once, and each nonzero
        list's index and answer table are built once. Each nonzero
        amplitude is squared once, and the squares, kept with the terms for
        `run`, must sum to exactly 1. A valid mapping takes the computer's
        next ordinal.
        """
        M, n, T, ws_dim = self.M, self.n, self.T, self.workspace_dim
        clean = {}
        ranks: dict[QueryWord, tuple[int, int]] = {}
        # each list as given -> (its QueryWords, list index, answer table)
        lists: dict[tuple, tuple] = {}
        terms = []
        total = ZERO
        for key, amp in amps.items():
            try:
                words, ws = key
                length = len(words)
            except (TypeError, ValueError):
                bad = "a (query list, workspace cell) pair"
                raise ModelError(f"key {key!r} is not {bad}") from None
            if length != T:
                raise ModelError(f"a query list has {length} words, but T = {T}")
            if isinstance(ws, bool) or not isinstance(ws, int):
                raise ModelError(f"workspace cell must be an integer, not {ws!r}")
            if not 0 <= ws < ws_dim:
                raise ModelError(f"workspace index {ws} outside 0..{ws_dim - 1}")
            amp = _amplitude(amp)
            if amp == 0:
                for word in _query_words(words):
                    check_word(word, M, n)
                continue
            listed = lists.get(words)
            if listed is None:
                qlist = _query_words(words)
                ranked = []
                for word in qlist:
                    pair = ranks.get(word)
                    if pair is None:
                        check_word(word, M, n)
                        pair = ranks[word] = (word.block, rank_of(word.location))
                    ranked.append(pair)
                listed = lists[words] = (
                    qlist,
                    _ranked_index(ranked, M, n),
                    _answer_table(ranked),
                )
            qlist, lidx, table = listed
            clean[(qlist, ws)] = amp
            square = amp * amp
            total += square
            terms.append((lidx, table, ws, square))
        if total != 1:
            raise ModelError(f"prequery norm^2 is {rational_str(total)}")
        # ranks holds every distinct (block, rank) pair the input queries
        union: dict[int, list[int]] = {}
        for word_block, rank in sorted(ranks.values()):
            union.setdefault(word_block - 1, []).append(rank)
        bounds = tuple((j, tuple(union_ranks)) for j, union_ranks in union.items())
        return MachineInput(
            MappingProxyType(clean), tuple(terms), bounds, next(self._ordinals)
        )


class AdviceFunction:
    """Classical advice: a fixed-length bit string per instance."""

    def __init__(self, length: int, fn: Callable[[StepInstance], str]):
        self.length, self.fn = length, fn

    def __call__(self, instance: StepInstance) -> str:
        bits = self.fn(instance)
        if not isinstance(bits, str) or len(bits) != self.length or bits.strip("01"):
            raise ModelError(f"advice {bits!r} is not a {self.length}-bit string")
        return bits


def no_advice() -> AdviceFunction:
    return AdviceFunction(0, lambda instance: "")


def _check_thresholds(computer: NonadaptiveComputer, steps: Sequence[int]) -> None:
    """One threshold per block, each in 1..N+1, or ModelError.

    The thresholds are an instance's steps, or those a decoder or an audit
    substitutes (see _answer_table).
    """
    N = computer.N
    if len(steps) != computer.M or min(steps) < 1 or max(steps) > N + 1:
        raise ModelError(
            f"thresholds {tuple(steps)!r} are not {computer.M} values in 1..{N + 1}"
        )


def outcome_to_answer(outcome: int, width: int) -> str:
    """Measured cell block to answer string (cells are LSB-first)."""
    return format(outcome, f"0{width}b")[::-1] if width else ""


def answer_to_outcome(answer: str) -> int:
    return int(answer[::-1], 2) if answer else 0


def run(
    computer: NonadaptiveComputer,
    block: int,
    advice: str,
    steps: Sequence[int],
    width: int | None = None,
) -> dict[str, Fraction]:
    """Exact distribution over answer strings read from the output cells.

    The oracle answers by the per-block thresholds steps. Runs are
    memoized on the computer, keyed by (input ordinal, class vector,
    width): thresholds with the same class vector give the same
    post-oracle state (see MachineInput.classes), and pairs with equal
    mappings share one input, so each distinct run is made once. The
    width and the thresholds are checked before every lookup, and every
    call gets its own copy of the distribution.

    A run is the |amp|^2-mixture of its terms, which holds because the
    answer register is fresh and the final permutes within fibers. So a
    miss is one pass over the input's cached terms and builds no state:
    each term's answer index comes from its answer table, its image from
    the final's `place`, which checks the image range and collisions, and
    its outcome is the image's cell block, into which the term's cached
    square is added.
    """
    if width is None:
        width = computer.output_width
    if not 1 <= width <= computer.output_width:
        raise ModelError(
            f"cannot read {width} cells from a {computer.output_width}-cell output"
        )
    _check_thresholds(computer, steps)
    cached = computer.prequery_state(block, advice)
    key = (cached.ordinal, cached.classes(steps), width)
    dist = computer.runs.get(key)
    if dist is None:
        place, dim = computer.final.place, computer.workspace_dim
        stride = dim // 2**width
        taken: set = set()
        probs: dict[int, Fraction] = {}
        for lidx, table, ws, square in cached.terms:
            placed = place(lidx, _table_answer(table, steps), ws, dim, taken)
            outcome = placed[2] // stride
            prob = probs.get(outcome)
            probs[outcome] = square if prob is None else prob + square
        dist = computer.runs[key] = MappingProxyType(
            {outcome_to_answer(outcome, width): prob for outcome, prob in probs.items()}
        )
    return dict(dist)


def overlap(
    computer: NonadaptiveComputer,
    block: int,
    advice: str,
    steps_a: Sequence[int],
    steps_b: Sequence[int],
) -> Fraction:
    """Inner product of input (block, advice)'s post-oracle states under
    thresholds steps_a and steps_b, each checked as `run` checks its own.

    A run is the |amp|^2-mixture of its terms, which holds because the
    answer register is fresh and the final permutes within fibers. So the
    final keeps every inner product and is not applied, and the two states
    share a cell exactly where a term's answer index is the same under both
    vectors: a miss is one pass over the input's cached terms, summing the
    squares of those terms. Memoized in computer.overlaps by (input
    ordinal, class vector of steps_a, class vector of steps_b; see
    MachineInput.classes), so pairs with equal mappings share it. Both
    states are unit vectors, so their squared distance is 2 - 2 * overlap.
    """
    _check_thresholds(computer, steps_a)
    _check_thresholds(computer, steps_b)
    cached = computer.prequery_state(block, advice)
    key = (cached.ordinal, cached.classes(steps_a), cached.classes(steps_b))
    value = computer.overlaps.get(key)
    if value is None:
        value = computer.overlaps[key] = sum(
            (
                square
                for _lidx, table, _ws, square in cached.terms
                if _table_answer(table, steps_a) == _table_answer(table, steps_b)
            ),
            ZERO,
        )
    return value


def _reachable_answers(table) -> set[int]:
    """Answer indices a query list with answer table `table` can receive.

    Real instances and the decoders' substituted thresholds both answer a
    block by a threshold s in 1..N+1, so a block's answers are fixed by its
    class (see _answer_table), and every class of every queried block is
    reached: s = ranks[c] gives class c, and the largest rank + 1 <= N + 1
    gives the last. The answers are the sums over every class vector.
    """
    return {
        sum(parts) for parts in itertools.product(*(shares for _j, _ranks, shares in table))
    }


def computer_to_doc(
    computer: NonadaptiveComputer, inputs: Sequence[tuple[int, str]]
) -> dict:
    """Serialize a computer: prequery table for the given inputs, then V.

    The final transform is stored as per-fiber workspace permutations over
    the fibers the tabulated prequery mappings can reach (see
    _reachable_answers); fibers the transform leaves fixed are omitted. A
    fiber is keyed "L,A", its list index L in hex, which has no digit
    limit, and its answer index A in decimal. A fiber whose images are not
    a permutation of the workspace is rejected.
    """
    table = {}
    lists = {}
    for block, advice in inputs:
        cached = computer.prequery_state(block, advice)
        rows = []
        for (words, ws), amp in sorted(
            cached.amps.items(), key=lambda kv: (kv[0][1], kv[0][0])
        ):
            rows.append(
                [
                    rational_str(amp),
                    [[w.block, w.location] for w in words],
                    ws,
                ]
            )
        table[f"{block}|{advice}"] = rows
        for lidx, answer_table, *_cell in cached.terms:
            lists[lidx] = answer_table
    identity = list(range(computer.workspace_dim))
    fn = computer.final.fn
    fiber_table = {}
    for lidx, answer_table in sorted(lists.items()):
        for aidx in sorted(_reachable_answers(answer_table)):
            images = [fn(lidx, aidx, ws) for ws in identity]
            if sorted(images) != identity:
                raise ModelError(f"fiber {lidx},{aidx} is not a workspace permutation")
            if images != identity:
                fiber_table[f"{lidx:#x},{aidx}"] = images
    return {
        "M": computer.M,
        "n": computer.n,
        "T": computer.T,
        "k": computer.advice_len,
        "p": computer.output_width,
        "scratch": computer.scratch_dim,
        "prequery": table,
        "final": {"form": "fibers", "table": fiber_table},
    }


def _doc_int(value, what: str, least: int | None = None) -> int:
    """A JSON integer field: an int, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{what} must be an integer, not {value!r}")
    if least is not None and value < least:
        raise ModelError(f"{what} must be at least {least}, not {value}")
    return value


def doc_shape(doc: Mapping) -> tuple[int, int, int]:
    """The (M, n, k) of a computer doc, checked as ints; nothing is built."""
    return (
        _doc_int(doc["M"], "M", 1),
        _doc_int(doc["n"], "n", 1),
        _doc_int(doc["k"], "k", 0),
    )


def _final_from_doc(final_doc, output_width: int, scratch_dim: int) -> FiberFinal:
    ws_dim = 2**output_width * scratch_dim
    if not isinstance(final_doc, Mapping):
        raise ModelError(
            "final transform must be a fiber table; dense matrices are not accepted"
        )
    if final_doc.get("form") != "fibers":
        raise ModelError(f"unknown final transform form {final_doc.get('form')!r}")
    table = final_doc.get("table", {})
    if not isinstance(table, Mapping):
        raise ModelError("fiber table must map fibers to workspace permutations")
    fiber_map = {}
    # each fiber -> the key that named it
    keys = {}
    for key, images in table.items():
        lidx_text, _, aidx_text = key.partition(",")
        images = [_doc_int(v, "fiber image") for v in images]
        if len(images) != ws_dim:
            raise ModelError(
                f"fiber {key} has {len(images)} images, but the header's "
                f"p = {output_width} and scratch = {scratch_dim} give a "
                f"workspace of {ws_dim} cells"
            )
        if sorted(images) != list(range(ws_dim)):
            raise ModelError(f"fiber {key} is not a workspace permutation")
        # a list index is hex, as computer_to_doc writes it, or decimal in older docs
        lidx = int(lidx_text, 16) if lidx_text.startswith("0x") else int(lidx_text)
        fiber = (lidx, int(aidx_text))
        if fiber in keys:
            raise ModelError(f"fiber keys {keys[fiber]!r} and {key!r} name one fiber")
        keys[fiber] = key
        fiber_map[fiber] = images

    def fn(lidx, aidx, ws):
        images = fiber_map.get((lidx, aidx))
        return images[ws] if images else ws

    return FiberFinal(fn)


def computer_from_doc(doc: Mapping) -> NonadaptiveComputer:
    """Load a computer from its serialized form (inverse of computer_to_doc).

    The output width p may not exceed n, which every built-in meets; it is
    checked before the workspace is sized from it. Each row [amp, words,
    ws] becomes one item of its input's mapping, which _validated checks
    before the computer is returned; the loader refuses only what the
    mapping cannot hold: a row of another shape, and a row or an input
    named twice, which a mapping would merge.
    """
    M, n, advice_len = doc_shape(doc)
    T = _doc_int(doc["T"], "T", 0)
    output_width = _doc_int(doc["p"], "p", 0)
    if output_width > n:
        raise ModelError(f"p must be at most n = {n}, not {output_width}")
    scratch_dim = _doc_int(doc["scratch"], "scratch", 1)
    if not isinstance(doc["prequery"], Mapping):
        raise ModelError("prequery table must map inputs to rows")
    table = {}
    for key, rows in doc["prequery"].items():
        block_text, _, advice = key.partition("|")
        block = int(block_text)
        where = f"prequery input ({block}, {advice!r})"
        if (block, advice) in table:
            raise ModelError(f"{where}: key {key!r} names an input an earlier key names")
        amps = table[(block, advice)] = {}
        for number, row in enumerate(rows):
            try:
                amp, words, ws = row
                if isinstance(words, list):
                    # JSON arrays become tuples, so that the row can key a mapping
                    words = tuple(tuple(w) if isinstance(w, list) else w for w in words)
                repeated = (words, ws) in amps
            except (TypeError, ValueError):
                shape = "[amplitude, [[block, location], ...], cell]"
                raise ModelError(f"{where}: row {number} is not {shape}") from None
            if repeated:
                raise ModelError(f"{where}: row {number} repeats an earlier row's words and cell")
            amps[(words, ws)] = amp

    def prequery(block: int, advice: str) -> Mapping:
        try:
            return table[(block, advice)]
        except KeyError:
            raise MissingEntryError(
                f"no prequery row for input ({block}, {advice!r})"
            ) from None

    computer = NonadaptiveComputer(
        M=M,
        n=n,
        T=T,
        advice_len=advice_len,
        output_width=output_width,
        scratch_dim=scratch_dim,
        prequery=prequery,
        final=_final_from_doc(doc["final"], output_width, scratch_dim),
    )
    for block, advice in table:
        computer.prequery_state(block, advice)
    return computer


def advice_from_doc(doc: Mapping) -> AdviceFunction:
    """Advice given as a table keyed by instance literals.

    Every tabulated value must be a `length`-bit string; an instance with
    no entry raises MissingEntryError when its advice is asked for.
    """
    length = _doc_int(doc["length"], "advice length", 0)
    table = doc.get("table", {})
    if not isinstance(table, Mapping):
        raise ModelError("advice table must map instance literals to bit strings")
    table = dict(table)
    for literal, bits in table.items():
        if (
            not isinstance(bits, str)
            or len(bits) != length
            or bits.strip("01")
        ):
            raise ModelError(
                f"advice {bits!r} for {literal!r} is not a {length}-bit string"
            )

    def fn(instance: StepInstance) -> str:
        literal = instance.literal()
        if length == 0:
            return ""
        try:
            return table[literal]
        except KeyError:
            raise MissingEntryError(f"no advice entry for {literal!r}") from None

    return AdviceFunction(length, fn)


def advice_to_doc(advice_fn: AdviceFunction, instances) -> dict:
    """Tabulate advice over the given instances (inverse of advice_from_doc)."""
    table = {inst.literal(): advice_fn(inst) for inst in instances}
    if advice_fn.length == 0:
        table = {}
    return {"length": advice_fn.length, "table": table}
