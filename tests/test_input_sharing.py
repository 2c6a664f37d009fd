"""Differential tests of inputs shared by prequery mapping.

A computer validates each distinct prequery mapping once, and every
(block, advice) pair that returns an equal mapping reads that one input:
its oracle terms, and its runs and overlaps, which are memoized by the
input's ordinal. A coder keeps one weight analysis per (block, ordinal),
and per advice string a record of M slots that point at them.
Every value read through a shared input is checked against a fresh
computer that has seen only that input, over the shared grid
(machines.grid_params), built in and loaded from its exported docs. The counts
of distinct inputs and the filled slots are checked on four sweeps, and
the errors of a malformed mapping met after a valid one, of a mapping
equal to a valid one but typed otherwise, and of a malformed amplitude
or word, each in either order, and of a block outside the record.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from machines import build_shared_query, every_threshold, grid_params, inputs, subject

from ttquery import compression
from ttquery.compression import Coder, prefix_weights, weight_analysis
from ttquery.model import ModelError, NonadaptiveComputer, QueryWord, overlap, run
from ttquery.ordered_search import enumerate_instances
from ttquery.subjects import _identity_final, get_subject


def _one_per_class(comp, block, advice, vectors):
    """{class vector: the first and the last threshold vector of that class}."""
    classes = comp.prequery_state(block, advice).classes
    found: dict = {}
    for steps in vectors:
        first, _last = found.get(classes(steps), (steps, None))
        found[classes(steps)] = (first, steps)
    return found


@pytest.mark.parametrize("name, M, n, k, from_doc", grid_params())
def test_shared_inputs_read_as_inputs_seen_alone(name, M, n, k, from_doc):
    # a fresh computer loaded from a doc tabulates only its one input
    tabulated = inputs(M, k)
    shared, adv = subject(name, M, n, k, from_doc)
    N, widths = 2**n, sorted({1, shared.output_width})
    coders = {p: Coder(shared, adv, p, 1) for p in widths}
    vectors = every_threshold(M, n)
    for block, advice in tabulated:
        fresh, _ = subject(name, M, n, k, from_doc, [(block, advice)])
        assert shared.prequery_state(block, advice).amps == fresh.prequery_state(block, advice).amps
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
    ordinals = {shared.prequery_state(block, advice).ordinal for block, advice in tabulated}
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
        weighed[(block, computer.prequery_state(block, advice).ordinal)] += 1
        return prefix_weights(computer, block, advice, p)

    monkeypatch.setattr(compression, "prefix_weights", counted_weights)
    coder = Coder(comp, adv, 1, 1)
    pairs = inputs(M, k)
    for _ in range(2):
        for block, advice in pairs:
            comp.prequery_state(block, advice)
            weight_analysis(coder, block, advice)
    # prequery is called once per pair; only the distinct mappings are kept
    assert calls == Counter(pairs)
    assert len(comp._inputs) == distinct
    cached = {pair: comp.prequery_state(*pair) for pair in pairs}
    assert sorted({c.ordinal for c in cached.values()}) == list(range(distinct))
    for (pair, one), (other, two) in product(cached.items(), cached.items()):
        same = one.ordinal == two.ordinal
        assert (one is two) == same
        assert (raw(*pair) == raw(*other)) == same, (pair, other)
    # one analysis, and one prefix-weight table, per (block, ordinal); the
    # filled slots of the per-advice records are exactly the inputs read
    assert set(weighed.values()) == {1}
    filled = {
        (block, advice): wa
        for advice, record in coder.analyses.items()
        for block, wa in enumerate(record, 1)
        if wa is not None
    }
    assert filled.keys() == set(pairs)
    assert len({id(wa) for wa in filled.values()}) == len(weighed)
    assert set(weighed) == {(block, cached[(block, advice)].ordinal) for block, advice in pairs}
    assert set(coder._shared_analyses) == set(weighed)
    for (block, advice), wa in filled.items():
        assert wa is coder._shared_analyses[(block, cached[(block, advice)].ordinal)]


def test_blocks_that_share_a_mapping_keep_their_own_analyses():
    comp, adv = build_shared_query(2)
    one, two, three = (comp.prequery_state(block, "") for block in (1, 2, 3))
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


def test_reading_one_block_on_a_fresh_coder_builds_only_its_input():
    comp, adv = get_subject("probe", 3, 2, 3)
    raw, calls = comp.prequery, Counter()

    def counted(block, advice):
        calls[(block, advice)] += 1
        return raw(block, advice)

    comp.prequery = counted
    coder = Coder(comp, adv, 1, 1)
    wa = weight_analysis(coder, 2, "010")
    assert calls == Counter({(2, "010"): 1})
    assert comp._states.keys() == {(2, "010")}
    assert coder.analyses == {"010": [None, wa, None]}
    assert weight_analysis(coder, 2, "010") is wa and len(calls) == 1


@pytest.mark.parametrize("filled", [False, True], ids=["fresh", "filled"])
def test_blocks_outside_the_record_raise_the_model_error(filled):
    # block 0 must not read the record's last slot, nor block M + 1 fall off it
    comp, adv = get_subject("probe", 3, 2, 3)
    coder = Coder(comp, adv, 1, 1)
    if filled:
        for block in (1, 2, 3):
            weight_analysis(coder, block, "010")
    record = list(coder.analyses.get("010", [None] * 3))
    for block in (0, 4):
        message = re.escape(f"prequery input ({block}, '010'): input block {block} outside 1..3")
        with pytest.raises(ModelError, match=f"^{message}$"):
            weight_analysis(coder, block, "010")
    assert coder.analyses.get("010", [None] * 3) == record


_ONE_WORD = (QueryWord(1, "1"),)
_VALID = {(_ONE_WORD, 0): Fraction(1)}


def _not_rational(amp):
    return re.escape(f"amplitude {amp!r} is not an int, a Fraction or a 'p/q' string")


@pytest.mark.parametrize(
    "valid, other, message",
    [
        (_VALID, {(_ONE_WORD, 0): 1.0}, _not_rational(1.0)),
        (_VALID, {(_ONE_WORD, 0): 1 + 0j}, _not_rational(1 + 0j)),
        (_VALID, {(_ONE_WORD, 0): True}, _not_rational(True)),
        (_VALID, {(_ONE_WORD, 0.0): Fraction(1)}, r"workspace cell must be an integer, not 0\.0"),
        (
            {(_ONE_WORD, 1): Fraction(1)},
            {(_ONE_WORD, True): Fraction(1)},
            r"workspace cell must be an integer, not True",
        ),
        (_VALID, {(((1.0, "1"),), 0): Fraction(1)}, r"word block must be an integer, not 1\.0"),
        (_VALID, {(((True, "1"),), 0): Fraction(1)}, r"word block must be an integer, not True"),
    ],
    ids=[
        "float-amplitude", "complex-amplitude", "bool-amplitude", "float-cell",
        "bool-cell", "float-block", "bool-block",
    ],
)
@pytest.mark.parametrize("other_first", [False, True], ids=["valid-first", "other-first"])
def test_an_equal_mapping_of_other_types_is_refused_in_either_order(
    valid, other, message, other_first
):
    # `valid` equals and hashes like `other`, but may not share its input
    assert valid == other and hash(tuple(valid.items())) == hash(tuple(other.items()))
    _refused_beside(valid, other, message, other_first)


@pytest.mark.parametrize(
    "other, message",
    [
        ({(_ONE_WORD, 0): "x"}, _not_rational("x")),
        ({(_ONE_WORD, 0): "1/0"}, re.escape("amplitude '1/0' has a zero denominator")),
        (
            {(((5,),), 0): Fraction(1)},
            re.escape("query list ((5,),) holds a word that is not a (block, location) pair"),
        ),
        ({(((1, 1),), 0): Fraction(1)}, r"location 1 is not a bit string"),
        ({(_ONE_WORD, 0): " -2/2 "}, _not_rational(" -2/2 ")),
        ({(_ONE_WORD, 0): " 1"}, _not_rational(" 1")),
        ({(_ONE_WORD, 0): "+1"}, _not_rational("+1")),
        ({(_ONE_WORD, 0): "0.5"}, _not_rational("0.5")),
        (
            {(_ONE_WORD, 0): Fraction(1), (((3, "1"),), 0): 0},
            r"block 3 outside 1\.\.2",
        ),
        (
            {(_ONE_WORD, 0): Fraction(1), (((True, "1"),), 1): "0"},
            r"word block must be an integer, not True",
        ),
        (
            {(_ONE_WORD,): Fraction(1)},
            re.escape(f"key {(_ONE_WORD,)!r} is not a (query list, workspace cell) pair"),
        ),
        ({(5, 0): Fraction(1)}, re.escape("key (5, 0) is not a (query list, workspace cell) pair")),
        ([((_ONE_WORD, 0), Fraction(1))], r"the prequery returned a list, not a mapping"),
    ],
    ids=[
        "word-amplitude", "zero-denominator", "one-field-word", "int-location",
        "spaced-amplitude", "space-before-amplitude", "plus-amplitude", "decimal-amplitude",
        "zero-term-block-outside", "zero-term-bool-block", "one-field-key", "int-words",
        "list-of-pairs",
    ],
)
@pytest.mark.parametrize("other_first", [False, True], ids=["valid-first", "other-first"])
def test_a_malformed_amplitude_or_word_is_refused_in_either_order(other, message, other_first):
    _refused_beside(_VALID, other, message, other_first)


def _refused_beside(valid, other, message, other_first):
    """Block 1 returns one mapping and block 2 the other: the malformed one
    raises a ModelError that names its input, the valid one is read, and
    only the valid one is kept, whichever is asked first."""
    first, second = (other, valid) if other_first else (valid, other)
    comp = _two_block_computer(lambda block, advice: first if block == 1 else second)
    other_block = 1 if other_first else 2
    for block in (1, 2):
        if block == other_block:
            prefix = re.escape(f"prequery input ({block}, '0'): ")
            with pytest.raises(ModelError, match=f"^{prefix}{message}$"):
                comp.prequery_state(block, "0")
        else:
            assert comp.prequery_state(block, "0").amps == valid
    assert len(comp._inputs) == 1 and list(comp._states) == [(3 - other_block, "0")]


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
    assert comp.prequery_state(1, "1") is comp.prequery_state(1, "0")
    assert comp.prequery_state(1, "0").ordinal == 0


class _Unhashable(Fraction):
    __hash__ = None


def test_an_unhashable_mapping_is_validated_for_each_pair():
    words = (QueryWord(1, "1"),)
    comp = _two_block_computer(lambda block, advice: {(words, 0): _Unhashable(1)})
    first, second = comp.prequery_state(1, "0"), comp.prequery_state(2, "0")
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
