import random
import re
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from machines import build_neighbor_probe, build_single_query, inputs, registry_shapes
from reference import apply_oracle, error_probability, final_apply, inner_product, max_error

from ttquery.model import (
    AdviceFunction,
    FiberFinal,
    ModelError,
    NonadaptiveComputer,
    QueryWord,
    _answer_table,
    _ranked_index,
    _table_answer,
    advice_from_doc,
    advice_to_doc,
    answer_to_outcome,
    computer_from_doc,
    computer_to_doc,
    list_index,
    no_advice,
    outcome_to_answer,
    overlap,
    run,
)
from ttquery.ordered_search import StepInstance, enumerate_instances
from ttquery.subjects import get_subject


def test_output_cells_are_lsb_first():
    assert outcome_to_answer(1, 2) == "10"
    assert outcome_to_answer(2, 2) == "01"
    assert answer_to_outcome("10") == 1
    for m in range(8):
        assert answer_to_outcome(outcome_to_answer(m, 3)) == m


def test_list_index_roundtrip():
    # every list of two words over M = 2, n = 2 gets its own index in 0..63
    words = [QueryWord(b, loc) for b in (1, 2) for loc in ("00", "01", "10", "11")]
    lists = [(a, b) for a in words for b in words]
    indices = {list_index(pair, 2, 2) for pair in lists}
    assert len(indices) == len(lists) == 64
    assert indices == set(range(64))


def _horner_index(ranked_words, M, n):
    """The list index digit by digit: the reference the pairwise build replaces."""
    idx = 0
    for block, rank in ranked_words:
        idx = idx * (M << n) + ((block - 1) << n) + rank - 1
    return idx


def test_ranked_index_matches_horner():
    rng = random.Random(2003)
    for M in range(1, 6):
        for n in range(1, 5):
            for T in range(10):
                for _ in range(4):
                    ranked = [(rng.randint(1, M), rng.randint(1, 2**n)) for _ in range(T)]
                    assert _ranked_index(ranked, M, n) == _horner_index(ranked, M, n)
    # the full M=1 n=12 list, and a random list of the same length over 3 blocks
    full = [(1, rank) for rank in range(1, 4096)]
    assert _ranked_index(full, 1, 12) == _horner_index(full, 1, 12)
    mixed = [(rng.randint(1, 3), rng.randint(1, 2**4)) for _ in range(4095)]
    assert _ranked_index(mixed, 3, 4) == _horner_index(mixed, 3, 4)


def test_oracle_answers_duplicates_answered_alike():
    # step 2: both copies of rank 2 answer 1, rank 1 answers 0, so bits 110
    assert _table_answer(_answer_table(((1, 2), (1, 2), (1, 1))), (2,)) == 0b110


def _one_block_computer(amps, n=1):
    """An M = 1, T = 1 computer with a 2-cell workspace; every prequery returns amps."""
    return NonadaptiveComputer(
        M=1,
        n=n,
        T=1,
        advice_len=0,
        output_width=1,
        scratch_dim=1,
        prequery=lambda block, advice: amps,
        final=FiberFinal(lambda lidx, aidx, ws: ws),
    )


def test_prequery_state_checks_shape():
    # a 2-word list with T = 1, and cell 9 of a 2-cell workspace
    two_words = (QueryWord(1, "0"), QueryWord(1, "1"))
    for amps, message in [
        ({(two_words, 0): Fraction(1)}, "a query list has 2 words, but T = 1"),
        ({(two_words[:1], 9): Fraction(1)}, "workspace index 9 outside 0..1"),
    ]:
        comp = _one_block_computer(amps)
        with pytest.raises(ModelError, match=rf"^prequery input \(1, ''\): {message}$"):
            comp.prequery_state(1, "")
        assert comp._states == {}


def test_zero_terms_are_dropped_after_their_words_are_checked():
    # a zero term leaves the mapping, the oracle terms and the queried
    # ranks, but its list length, its cell and its words are checked
    good = (QueryWord(1, "01"),)
    other = (QueryWord(1, "11"),)
    comp = _one_block_computer(
        {(good, 0): Fraction(1), (other, 1): Fraction(0), (good, 1): "0/3"}, n=2
    )
    cached = comp.prequery_state(1, "")
    assert dict(cached.amps) == {(good, 0): Fraction(1)}
    assert [(ws, sq) for _lidx, _table, ws, sq in cached.terms] == [(0, Fraction(1))]
    assert cached.bounds == ((0, (2,)),)
    assert run(comp, 1, "", (1,)) == {"0": Fraction(1)}
    for zero, message in [
        ((good * 2, 0), "has 2 words"),
        (((QueryWord(2, "1"),), 1), "block 2 outside 1..1"),
        (((QueryWord(1, "1"),), 1), "bad location '1' for n=2"),
    ]:
        bad = _one_block_computer({(good, 0): Fraction(1), zero: 0}, n=2)
        with pytest.raises(ModelError, match=re.escape(message)):
            bad.prequery_state(1, "")


def test_prequery_words_become_query_words():
    # plain (block, location) pairs are read as QueryWords
    comp = _one_block_computer({(((1, "1"),), 0): Fraction(1)})
    ((words, ws),) = comp.prequery_state(1, "").amps
    assert type(words[0]) is QueryWord and words == (QueryWord(1, "1"),)


def test_permutation_final_rejects_collision():
    final = FiberFinal(lambda lidx, aidx, ws: 0)
    state = {(0, 0, 0): Fraction(3, 5), (0, 0, 1): Fraction(4, 5)}
    with pytest.raises(ModelError):
        final_apply(final, state, 2)


def _same_refusal(comp, steps, error_type):
    """The error that run raises, checked to be the one that the reference
    path final_apply raises on the oracle's state, in type and message;
    the refused run leaves nothing in the memo."""
    state = apply_oracle(comp, 1, "", steps)
    with pytest.raises(error_type) as applied:
        final_apply(comp.final, state, comp.workspace_dim)
    with pytest.raises(error_type) as ran:
        run(comp, 1, "", steps)
    assert type(ran.value) is type(applied.value)
    assert str(ran.value) == str(applied.value)
    assert comp.runs == {}
    return ran.value


def test_run_rejects_collision_as_apply_does():
    # two cells of one fiber sent to one image: run makes no state for
    # final_apply to refuse, so it checks each image it places itself
    words = (QueryWord(1, "1"),)
    comp = _one_block_computer({(words, 0): Fraction(3, 5), (words, 1): Fraction(4, 5)})
    comp.final = FiberFinal(lambda lidx, aidx, ws: 0)
    error = _same_refusal(comp, (1,), ModelError)
    assert type(error) is ModelError
    assert str(error) == "final transform collides on (1, 1, 0)"


def test_fiber_final_rejects_cell_outside_workspace():
    # the post-oracle state is built unchecked, so the final checks each image
    for sign in (1, -1):
        comp, _ = get_subject("full", 1, 2, 0)
        dim = comp.workspace_dim
        comp.final = FiberFinal(lambda lidx, aidx, ws: ws + sign * dim)
        error = _same_refusal(comp, (3,), ModelError)
        assert type(error) is ModelError
        assert str(error).startswith("workspace cell ")
        assert str(error).endswith("outside 0..3")


def test_full_query_worked_example():
    # two-bit search, step 3: the machine answers "10" with certainty
    comp, adv = get_subject("full", 1, 2, 0)
    inst = StepInstance(1, 2, (3,))
    dist = run(comp, 1, adv(inst), inst.steps)
    assert dist == {"10": Fraction(1)}


def test_narrow_width_is_answer_suffix():
    comp, adv = get_subject("full", 1, 2, 0)
    inst = StepInstance(1, 2, (3,))
    dist = run(comp, 1, adv(inst), inst.steps, width=1)
    assert dist == {"0": Fraction(1)}


def test_error_probability_and_max_error():
    comp, adv = get_subject("full", 1, 2, 0)
    insts = list(enumerate_instances(1, 2, 100))
    assert error_probability(comp, adv, 2, insts[0], 1) == 0
    assert max_error(comp, adv, 2, insts) == 0


def test_validate_computer_checks_norm():
    # a built-in subject's mappings pass the norm check on first use
    comp, _ = get_subject("full", 2, 2, 0)
    for block in (1, 2):
        amps = comp.prequery_state(block, "").amps
        assert sum(amp * amp for amp in amps.values()) == 1


def test_run_rejects_non_unit_prequery_state():
    # a library-built computer is checked on first use, not only on load,
    # and a unit mapping beside the refused one runs
    word = (QueryWord(1, "0"),)
    comp = _one_block_computer({(word, 0): Fraction(1, 2), (word, 1): Fraction(1, 2)})
    with pytest.raises(ModelError, match=r"^prequery input \(1, ''\): prequery norm\^2 is 1/2$"):
        run(comp, 1, "", (1,))
    unit = _one_block_computer({(word, 0): Fraction(3, 5), (word, 1): Fraction(4, 5)})
    assert run(unit, 1, "", (1,)) == {"0": Fraction(9, 25), "1": Fraction(16, 25)}


@pytest.mark.parametrize(
    "word, message",
    [
        (QueryWord(2, "01"), "block 2 outside"),
        (QueryWord(1, "1"), "bad location"),
        (QueryWord(1, "012"), "bad location"),
    ],
)
def test_prequery_state_checks_every_word(word, message):
    # the bad word sits in the second list, behind a valid one
    good = (QueryWord(1, "01"),)
    comp = _one_block_computer({(good, 0): Fraction(3, 5), ((word,), 1): Fraction(4, 5)}, n=2)
    with pytest.raises(ModelError, match=rf"^prequery input \(1, ''\): {message}"):
        run(comp, 1, "", (1,))
    assert comp._states == {}


_WORD = (QueryWord(1, "1"),)


@pytest.mark.parametrize(
    "amp, value", [(1, 1), (-1, -1), (Fraction(1), 1), ("1", 1), ("-2/2", -1)], ids=repr
)
def test_ints_fractions_and_rational_strings_are_amplitudes(amp, value):
    comp = _one_block_computer({(_WORD, 0): amp})
    (got,) = comp.prequery_state(1, "").amps.values()
    assert type(got) is Fraction and got == value
    assert run(comp, 1, "", (1,)) == {"0": Fraction(1)}


def test_advice_function_length_enforced():
    # a result that is not a str is refused like a string of the wrong length
    for bits in ("0", "0x", 1, None):
        fn = AdviceFunction(2, lambda inst: bits)
        message = re.escape(f"advice {bits!r} is not a 2-bit string")
        with pytest.raises(ModelError, match=f"^{message}$"):
            fn(StepInstance(1, 1, (1,)))
    assert no_advice()(StepInstance(1, 1, (1,))) == ""


def test_apply_oracle_keys_by_list_and_answers():
    comp, adv = get_subject("full", 1, 1, 0)
    inst = StepInstance(1, 1, (2,))
    after = apply_oracle(comp, 1, "", inst.steps)
    # one query of location "0": answer 0 under step 2, so answer index 0
    ((key, amp),) = after.items()
    assert key[1] == 0
    assert amp == 1


def test_computer_doc_roundtrip_fiber_form():
    comp, adv = get_subject("advised", 1, 3, 1)
    insts = list(enumerate_instances(1, 3, 100))
    doc = computer_to_doc(comp, [(1, "0"), (1, "1")])
    assert doc["final"]["form"] == "fibers"
    comp2 = computer_from_doc(doc)
    adv2 = advice_from_doc(advice_to_doc(adv, insts))
    assert max_error(comp2, adv2, 3, insts) == 0


def test_computer_doc_rejects_bad_fiber():
    comp, _ = get_subject("full", 1, 1, 0)
    doc = computer_to_doc(comp, [(1, "")])
    broken = dict(doc["final"])
    broken["table"] = {"0,0": [0, 0]}
    doc = dict(doc, final=broken)
    with pytest.raises(ModelError):
        computer_from_doc(doc)


def test_computer_to_doc_rejects_non_permutation_fiber():
    comp, _ = get_subject("full", 1, 1, 0)
    comp.final = FiberFinal(lambda lidx, aidx, ws: 0)
    with pytest.raises(ModelError, match="not a workspace permutation"):
        computer_to_doc(comp, [(1, "")])


def test_run_rejects_bad_width():
    comp, adv = get_subject("full", 1, 2, 0)
    inst = StepInstance(1, 2, (1,))
    with pytest.raises(ModelError):
        run(comp, 1, "", inst.steps, width=3)


@pytest.mark.parametrize("steps", [(), (1, 1), (0,), (6,)])
def test_apply_oracle_rejects_bad_thresholds(steps):
    # one threshold per block, each in 1..N+1 (N = 4 here); overlap checks
    # both of its vectors the same way, before its memo is read
    comp, _ = get_subject("full", 1, 2, 0)
    with pytest.raises(ModelError, match="thresholds"):
        apply_oracle(comp, 1, "", steps)
    for a, b in ((steps, (1,)), ((1,), steps)):
        with pytest.raises(ModelError, match="thresholds"):
            overlap(comp, 1, "", a, b)
    assert comp.overlaps == {}
    # N + 1 is the largest threshold: every word is answered 0
    assert all(key[1] == 0 for key, _ in apply_oracle(comp, 1, "", (5,)).items())


def test_error_probability_checks_instance_shape():
    comp, adv = get_subject("full", 1, 2, 0)
    with pytest.raises(ModelError, match="shape"):
        error_probability(comp, adv, 1, StepInstance(1, 3, (5,)), 1)


# --------------------------------------------------------------- overlaps


def _overlap_subjects():
    """(label, builder) for every registry subject at each of its advice
    lengths, the neighbour probe and the single-query machine, at M in
    {1, 2, 4} and n <= 3."""
    shapes = list(product((1, 2, 4), (1, 2, 3)))
    for name, M, n, k in registry_shapes(shapes):
        yield f"{name}-{M}-{n}-{k}", partial(get_subject, name, M, n, k)
    for M, n in shapes:
        if M >= 3:
            yield f"neighbor_probe-{M}-{n}", partial(build_neighbor_probe, M, n)
        yield f"single_query-{M}-{n}", partial(build_single_query, M, n)


OVERLAP_SUBJECTS = tuple(_overlap_subjects())


@pytest.mark.parametrize("label, build", OVERLAP_SUBJECTS, ids=[s[0] for s in OVERLAP_SUBJECTS])
def test_overlap_matches_fresh_inner_products(label, build):
    comp, _ = build()
    M, N, dim = comp.M, comp.N, comp.workspace_dim
    # thresholds 1, 2, N and N + 1 per block; a sample of the pairs, with
    # every threshold N + 1 against every threshold 1
    vectors = list(product(sorted({1, 2, N, N + 1}), repeat=M))
    pairs = list(product(vectors, vectors))
    rng = random.Random(2003)
    pairs = rng.sample(pairs, min(len(pairs), 64)) + [((N + 1,) * M, (1,) * M)]
    keys = set()
    hits = 0
    for block, advice in inputs(M, comp.advice_len):
        cached = comp.prequery_state(block, advice)
        for a, b in pairs:
            key = (cached.ordinal, cached.classes(a), cached.classes(b))
            hit = key in comp.overlaps
            got = overlap(comp, block, advice, a, b)
            state_a = apply_oracle(comp, block, advice, a)
            state_b = apply_oracle(comp, block, advice, b)
            want = inner_product(state_a, state_b)
            finals = final_apply(comp.final, state_a, dim), final_apply(comp.final, state_b, dim)
            assert type(got) is Fraction
            assert got == want == inner_product(*finals), (block, advice, a, b)
            # a hit, whether from this call's twin or from a vector of the
            # same classes, is the value the miss stored
            assert overlap(comp, block, advice, a, b) is got is comp.overlaps[key]
            hits += hit
            keys.add(key)
    assert set(comp.overlaps) == keys
    assert hits > 0
    fresh, _ = build()
    assert fresh.overlaps == {}
