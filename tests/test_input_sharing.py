"""Differential tests of inputs shared by prequery mapping.

A computer validates each distinct prequery mapping once, and every
(block, advice) pair that returns an equal mapping reads that one input:
its oracle terms, and its runs and overlaps, which are memoized by the
input's ordinal. A coder keeps one weight analysis per (block, ordinal).
Every value read through a shared input is checked against a fresh
computer that has seen only that input, over every registry subject at
M <= 3 and n <= 3, built-in and loaded from its exported doc. The counts
of distinct inputs are checked on four sweeps, and the errors of a
malformed mapping met after a valid one.
"""

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from machines import build_shared_query

from ttquery import compression
from ttquery.compression import Coder, prefix_weights, weight_analysis
from ttquery.model import (
    ModelError,
    NonadaptiveComputer,
    QueryWord,
    computer_from_doc,
    computer_to_doc,
    overlap,
    run,
)
from ttquery.ordered_search import enumerate_instances
from ttquery.subjects import REGISTRY, _identity_final, get_subject


def _advice_strings(k):
    return ["".join(bits) for bits in product("01", repeat=k)]


def _advice_len(name, M):
    # advised at k = M reads one advice bit per block, as probe does
    return {"advised": M, "probe": M, "shortcut": 1}.get(name, 0)


# every registry subject at every M <= 3, n <= 3 it can be built at
CASES = [
    (name, M, n)
    for name in REGISTRY
    for M, n in product(range(1, 4), range(1, 4))
    if name != "shortcut" or (M == 1 and n >= 2)
]
PARAMS = [
    pytest.param(*case, from_doc, id=f"{case[0]}-M{case[1]}-n{case[2]}" + "-doc" * from_doc)
    for from_doc in (False, True)
    for case in CASES
]


def _computer(name, M, n, inputs, from_doc):
    """The subject's computer and advice; from_doc loads the computer from
    a doc that tabulates only `inputs`, so it has seen no other input."""
    comp, adv = get_subject(name, M, n, _advice_len(name, M))
    if from_doc:
        comp = computer_from_doc(computer_to_doc(comp, inputs))
    return comp, adv


def _one_per_class(comp, block, advice, vectors):
    """{class vector: the first and the last threshold vector of that class}."""
    classes = comp._cached_input(block, advice).classes
    found: dict = {}
    for steps in vectors:
        first, _last = found.get(classes(steps), (steps, None))
        found[classes(steps)] = (first, steps)
    return found


@pytest.mark.parametrize("name, M, n, from_doc", PARAMS)
def test_shared_inputs_read_as_inputs_seen_alone(name, M, n, from_doc):
    inputs = list(product(range(1, M + 1), _advice_strings(_advice_len(name, M))))
    shared, adv = _computer(name, M, n, inputs, from_doc)
    N, widths = 2**n, sorted({1, shared.output_width})
    coders = {p: Coder(shared, adv, p, 1) for p in widths}
    vectors = list(product(range(1, N + 2), repeat=M))
    for block, advice in inputs:
        fresh, _ = _computer(name, M, n, [(block, advice)], from_doc)
        assert shared.prequery_state(block, advice) == fresh.prequery_state(block, advice)
        for steps, width in product(vectors, widths):
            got = run(shared, block, advice, steps, width)
            assert got == run(fresh, block, advice, steps, width), (block, advice, steps, width)
        # an overlap depends on thresholds only through their class vectors,
        # so one vector per class covers every pair; the shared computer is
        # asked with the last vector of each class, the fresh one with the first
        reps = _one_per_class(fresh, block, advice, vectors).values()
        for (first_a, last_a), (first_b, last_b) in product(reps, reps):
            got = overlap(shared, block, advice, last_a, last_b)
            want = overlap(fresh, block, advice, first_a, first_b)
            assert got == want, (block, advice, first_a, first_b)
        for p in widths:
            assert prefix_weights(shared, block, advice, p) == prefix_weights(fresh, block, advice, p)
            got = weight_analysis(coders[p], block, advice)
            assert got == weight_analysis(Coder(fresh, adv, p, 1), block, advice), (block, advice, p)
    # the pairs that share a mapping share its runs and overlaps
    ordinals = {shared._cached_input(block, advice).ordinal for block, advice in inputs}
    assert {key[0] for key in shared.runs} == ordinals == {key[0] for key in shared.overlaps}


@pytest.mark.parametrize(
    "name, M, n, k, distinct",
    [("probe", 4, 2, 4, 8), ("zero", 3, 2, 0, 1), ("advised", 3, 4, 3, 6), ("full", 3, 2, 0, 3)],
)
def test_distinct_inputs_are_validated_and_weighed_once(name, M, n, k, distinct, monkeypatch):
    comp, adv = get_subject(name, M, n, k)
    raw, calls = comp.prequery, Counter()

    def counted(block, advice):
        calls[(block, advice)] += 1
        return raw(block, advice)

    comp.prequery = counted
    weighed = Counter()

    def counted_weights(computer, block, advice, p):
        weighed[(block, computer._cached_input(block, advice).ordinal)] += 1
        return prefix_weights(computer, block, advice, p)

    monkeypatch.setattr(compression, "prefix_weights", counted_weights)
    coder = Coder(comp, adv, 1, 1)
    inputs = list(product(range(1, M + 1), _advice_strings(k)))
    for _ in range(2):
        for block, advice in inputs:
            comp.prequery_state(block, advice)
            weight_analysis(coder, block, advice)
    # prequery is called once per pair; only the distinct mappings are kept
    assert calls == Counter(inputs)
    assert len(comp._inputs) == distinct
    cached = {pair: comp._cached_input(*pair) for pair in inputs}
    assert sorted({c.ordinal for c in cached.values()}) == list(range(distinct))
    for (pair, one), (other, two) in product(cached.items(), cached.items()):
        same = one.ordinal == two.ordinal
        assert (one is two) == same
        assert (raw(*pair) == raw(*other)) == same, (pair, other)
    # one analysis, and one prefix-weight table, per (block, ordinal)
    assert set(weighed.values()) == {1}
    assert len(coder.analyses) == len(inputs)
    assert len({id(wa) for wa in coder.analyses.values()}) == len(weighed)
    assert set(weighed) == {(block, cached[(block, advice)].ordinal) for block, advice in inputs}


def test_blocks_that_share_a_mapping_keep_their_own_analyses():
    comp, adv = build_shared_query(2)
    one, two, three = (comp._cached_input(block, "") for block in (1, 2, 3))
    assert one is two and one.ordinal != three.ordinal
    coder = Coder(comp, adv, 1, 1)
    first, second = weight_analysis(coder, 1, ""), weight_analysis(coder, 2, "")
    # one table, but only block 1's own prefix is heavy
    assert first.table == second.table == {(1, "0"): Fraction(1)}
    assert (first.own_mass, first.heavy) == (Fraction(1), ("0",))
    assert (second.own_mass, second.heavy) == (Fraction(0), ())
    for block in (1, 2, 3):
        fresh, _ = build_shared_query(2)
        assert weight_analysis(coder, block, "") == weight_analysis(Coder(fresh, adv, 1, 1), block, "")
    # the two blocks share every run and overlap
    steps = [(1, 1, 1), (2, 1, 1), (3, 3, 3)]
    for block, a, b in product((1, 2), steps, steps):
        run(comp, block, "", a)
        overlap(comp, block, "", a, b)
    assert {key[0] for key in comp.runs} == {one.ordinal}
    assert len(comp.runs) == 2 and len(comp.overlaps) == 4


def _two_block_computer(prequery):
    return NonadaptiveComputer(
        M=2, n=1, T=1, advice_len=1, output_width=1, scratch_dim=1,
        prequery=prequery, final=_identity_final(),
    )


def test_a_malformed_mapping_after_a_valid_one_names_its_own_input():
    words = (QueryWord(1, "1"),)
    calls = Counter()

    def prequery(block, advice):
        calls[(block, advice)] += 1
        # (2, '1') halves the amplitude of the mapping every other pair returns
        return {(words, 0): Fraction(1, 2) if (block, advice) == (2, "1") else Fraction(1)}

    comp = _two_block_computer(prequery)
    assert comp.prequery_state(1, "0") is comp.prequery_state(2, "0")
    for _ in range(2):
        with pytest.raises(ModelError, match=r"^prequery input \(2, '1'\): prequery norm\^2 is 1/4$"):
            comp.prequery_state(2, "1")
    assert calls[(2, "1")] == 2
    assert len(comp._inputs) == 1 and (2, "1") not in comp._states
    # a valid pair after the refusal still shares the one valid input
    assert comp._cached_input(1, "1") is comp._cached_input(1, "0")
    assert comp._cached_input(1, "0").ordinal == 0


class _Unhashable(Fraction):
    __hash__ = None


def test_an_unhashable_mapping_is_validated_for_each_pair():
    words = (QueryWord(1, "1"),)
    comp = _two_block_computer(lambda block, advice: {(words, 0): _Unhashable(1)})
    first, second = comp._cached_input(1, "0"), comp._cached_input(2, "0")
    assert first is not second and first.ordinal != second.ordinal
    assert comp._inputs == {}
    assert run(comp, 1, "0", (1, 1)) == run(comp, 2, "0", (1, 1)) == {"0": Fraction(1)}
    assert len(comp.runs) == 2


def test_every_instance_of_a_shared_sweep_encodes_as_before():
    # probe M = 3: eight advice strings give each block two mappings, and a
    # sweep's codes and decodes agree with a coder whose computer is fresh
    # for every instance
    comp, adv = get_subject("probe", 3, 2, 3)
    coder = Coder(comp, adv, 1, 3)
    for inst in enumerate_instances(3, 2):
        fresh, _ = get_subject("probe", 3, 2, 3)
        enc = compression.encode(coder, inst)
        assert enc == compression.encode(Coder(fresh, adv, 1, 3), inst)
        assert compression.decode(coder, enc) == inst
    assert len(comp._inputs) == 6
