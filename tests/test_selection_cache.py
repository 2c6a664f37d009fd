"""Differential tests of the coder's selection cache, of prefix weights read
from the cached oracle terms, and of the bit-string and step checks.

Every selection a coder keeps is checked against a fresh selection on a
coder whose cache is empty and against reference.straight_select, and
every code against a decoder whose cache is empty, over the shared grid
(machines.grid_params): every registry subject at M <= 3 and n <= 3,
built in and loaded from its exported docs. prefix_weights is checked
against reference.straight_weights on that grid. The bit-string checks
are checked against the generator checks they replace, and the decoder's
majority test against an outcome at exactly 1/2.
"""

import re
from fractions import Fraction
from itertools import product

import pytest
from machines import build_even_split, grid_params, inputs, subject, sweep_coders
from reference import straight_select, straight_weights

from ttquery.compression import (
    Coder,
    DecodeError,
    _majority_suffix,
    _select,
    audit_instance,
    decode,
    encode,
    lwss,
    prefix_weights,
    profile,
)
from ttquery.model import (
    AdviceFunction,
    ModelError,
    NonadaptiveComputer,
    QueryWord,
    advice_from_doc,
    check_word,
    run,
)
from ttquery.ordered_search import StepInstance, enumerate_instances, rank_of
from ttquery.subjects import _identity_final, get_subject

GRID = grid_params()


@pytest.mark.parametrize("name, M, n, k, from_doc", GRID)
def test_cached_selections_match_fresh_selections(name, M, n, k, from_doc):
    comp, adv = subject(name, M, n, k, from_doc)
    for coder in sweep_coders(comp, adv):
        p, l = coder.ctx.p, coder.ctx.l
        fresh = Coder(comp, adv, p, l)
        codes = {inst: encode(coder, inst) for inst in enumerate_instances(M, n)}
        cached = dict(coder.selections)
        assert len(cached) <= sum(enc.case == 2 for enc in codes.values())
        for (advice, bad), sel in cached.items():
            fresh.selections.clear()
            again = _select(fresh, advice, dict(bad))
            assert again == sel and again is not sel, (p, l, advice, bad)
            assert straight_select(fresh, advice, dict(bad)) == sel, (p, l, advice, bad)
        for inst, enc in codes.items():
            assert decode(coder, enc) == inst
            if enc.case == 2:
                audit = audit_instance(coder, inst)
                assert audit.selection is lwss(coder, profile(coder, inst))
        # decoding and auditing found every selection the encoder made
        assert coder.selections.keys() == cached.keys()
        assert all(coder.selections[key] is sel for key, sel in cached.items())


@pytest.mark.parametrize("name, M, n, k, from_doc", GRID)
def test_every_code_decodes_on_a_coder_with_no_selections(name, M, n, k, from_doc):
    comp, adv = subject(name, M, n, k, from_doc)
    for coder in sweep_coders(comp, adv):
        p, l = coder.ctx.p, coder.ctx.l
        second = Coder(comp, adv, p, l)
        for inst in enumerate_instances(M, n):
            enc = encode(coder, inst)
            second.selections.clear()
            assert decode(second, enc) == inst, (p, l, inst)
            assert len(second.selections) == (enc.case == 2)


def test_a_case_two_sweep_fills_the_selection_cache():
    # so the differential tests above compare selections, not empty caches
    comp, adv = get_subject("probe", 3, 2, 3)
    coder = Coder(comp, adv, 1, 3)
    for inst in enumerate_instances(3, 2):
        decode(coder, encode(coder, inst))
    assert len(coder.selections) > 1


# ---------------------------------------------------------------------------
# Prefix weights from the cached terms, against the straight weights


@pytest.mark.parametrize("name, M, n, k, from_doc", GRID)
def test_prefix_weights_match_query_word_weights(name, M, n, k, from_doc):
    comp, _ = subject(name, M, n, k, from_doc)
    for (block, advice), p in product(inputs(M, k), range(1, n + 1)):
        want = straight_weights(comp, block, advice, p)
        assert prefix_weights(comp, block, advice, p) == want, (block, advice, p)


def _hand_built():
    """M = 2, n = 3, T = 4: one list repeats the word (1, 010) and queries
    (1, 011), which shares its leading bits; the other queries block 2."""
    first = ((1, "010"), (1, "010"), (1, "011"), (2, "110"))
    second = ((2, "110"), (2, "111"), (1, "000"), (1, "000"))

    def prequery(block, advice):
        return {(first, 0): Fraction(3, 5), (second, 1): Fraction(4, 5)}

    return NonadaptiveComputer(
        M=2, n=3, T=4, advice_len=0, output_width=1, scratch_dim=1,
        prequery=prequery, final=_identity_final(),
    )


def test_prefix_weights_count_each_distinct_word_once_per_list():
    comp = _hand_built()
    a, b = Fraction(9, 25), Fraction(16, 25)
    assert prefix_weights(comp, 1, "", 1) == {
        (1, "01"): 2 * a, (2, "11"): a + 2 * b, (1, "00"): b,
    }
    # with no prefix bits left each distinct word of a list still counts
    assert prefix_weights(comp, 1, "", 3) == {(1, ""): 2 * a + b, (2, ""): a + 2 * b}
    for p in range(1, 4):
        assert prefix_weights(comp, 1, "", p) == straight_weights(comp, 1, "", p)


# ---------------------------------------------------------------------------
# Bit-string checks, against the generator checks they replace

# none is a bit string, though int(..., 2) reads each but "012" as 1
NOT_BITS = ["0_1", " 01", "01\n", "012", "０１"]


def _generator_refuses(bits):
    return any(b not in "01" for b in bits)


@pytest.mark.parametrize("bits", NOT_BITS + ["", "0", "1", "0110"])
def test_bit_string_checks_refuse_what_the_generator_refused(bits):
    refused = _generator_refuses(bits)
    if refused:
        with pytest.raises(ValueError, match="^not a bit string: "):
            rank_of(bits)
    else:
        assert rank_of(bits) == (int(bits, 2) if bits else 0) + 1

    n = max(len(bits), 1)
    word = QueryWord(1, bits)
    if refused or not bits:
        message = re.escape(f"bad location {bits!r} for n={n}")
        with pytest.raises(ModelError, match=f"^{message}$"):
            check_word(word, 1, n)
    else:
        check_word(word, 1, n)

    inst = StepInstance(1, 1, (1,))
    advice = AdviceFunction(len(bits), lambda instance: bits)
    if refused:
        with pytest.raises(ModelError, match="is not a"):
            advice(inst)
        with pytest.raises(ModelError, match="is not a"):
            advice_from_doc({"length": len(bits), "table": {inst.literal(): bits}})
    else:
        assert advice(inst) == bits
        doc = {"length": len(bits), "table": {inst.literal(): bits}}
        assert advice_from_doc(doc)(inst) == bits


@pytest.mark.parametrize(
    "steps, message",
    [
        ((1, 0, 9), "step 0 outside 1..4"),
        ((1, 9, 0), "step 9 outside 1..4"),
        ((5, 4, 4), "step 5 outside 1..4"),
        ((4, 4, -1), "step -1 outside 1..4"),
        ((1, 2.0, 3), r"steps must be integers, got \(1, 2.0, 3\)"),
        ((1, 2), "expected 3 steps, got 2"),
    ],
)
def test_step_instance_names_the_first_bad_step(steps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        StepInstance(3, 2, steps)


def test_step_instance_takes_every_in_range_step():
    assert StepInstance(3, 2, (1, True, 4)).steps == (1, 1, 4)
    assert StepInstance(3, 2, iter((4, 3, 2))).names == ("11", "10", "01")


def test_an_outcome_at_exactly_one_half_is_not_a_majority():
    comp, adv = build_even_split(3)
    coder = Coder(comp, adv, 1, 1)
    assert run(comp, 1, "", (1,), width=1) == {"0": Fraction(1, 2), "1": Fraction(1, 2)}
    with pytest.raises(DecodeError, match="^no outcome for block 1 wins a strict majority$"):
        _majority_suffix(coder, 1, "", (1,))
