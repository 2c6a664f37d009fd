from fractions import Fraction

import pytest

from ttquery.compression import (
    DEFAULT_PARAMS,
    DecodeError,
    Encoding,
    EncodingFormatError,
    decode_single,
    encode_single,
    single_block_bound,
    single_coder,
)
from ttquery.ordered_search import StepInstance, enumerate_instances
from ttquery.subjects import get_subject


def _roundtrip_all(n, k, comp, adv):
    encs = {}
    coder = single_coder(comp, adv, DEFAULT_PARAMS)
    for inst in enumerate_instances(1, n, 4096):
        enc = encode_single(coder, inst)
        assert decode_single(coder, enc) == inst
        encs[inst] = enc
    return encs


def test_bound_frozen_value():
    # n = 8, k = 0 at the default parameters
    assert single_block_bound(8, 0) == Fraction(1, 4)
    assert single_block_bound(4, 1) == Fraction(1, 256)


@pytest.mark.parametrize("name,k", [("full", 0), ("advised", 1)])
def test_roundtrip_heavy_machines(name, k):
    comp, adv = get_subject(name, 1, 4, k)
    encs = _roundtrip_all(4, k, comp, adv)
    assert all(e.case == 1 for e in encs.values())


def test_roundtrip_shortcut_exercises_both_cases():
    comp, adv = get_subject("shortcut", 1, 4, 1)
    encs = _roundtrip_all(4, 1, comp, adv)
    cases = {e.case for e in encs.values()}
    assert cases == {1, 2}
    # the light side of the code: exactly n - 1 bits
    for inst, enc in encs.items():
        if enc.case == 2:
            assert len(enc) == 3
            assert inst.steps[0] % 4 == 0


def test_case1_layout_suffix_before_rank():
    comp, adv = get_subject("advised", 1, 4, 1)
    inst = StepInstance(1, 4, (6,))
    enc = encode_single(single_coder(comp, adv, DEFAULT_PARAMS), inst)
    names = [name for name, _, _ in enc.items]
    assert names == ["advice", "suffix", "rank"]


def test_width_is_advice_plus_one():
    comp, adv = get_subject("advised", 1, 3, 2)
    coder = single_coder(comp, adv, DEFAULT_PARAMS)
    for inst in enumerate_instances(1, 3, 100):
        enc = encode_single(coder, inst)
        assert decode_single(coder, enc) == inst


def test_single_rejects_oversized_advice():
    comp, adv = get_subject("advised", 1, 3, 3)
    inst = StepInstance(1, 3, (1,))
    with pytest.raises(ValueError):
        encode_single(single_coder(comp, adv, DEFAULT_PARAMS), inst)


def test_decode_single_rejects_short_stream():
    comp, adv = get_subject("full", 1, 4, 0)
    inst = StepInstance(1, 4, (9,))
    coder = single_coder(comp, adv, DEFAULT_PARAMS)
    enc = encode_single(coder, inst)
    bad = Encoding(enc.case, enc.bits[:-2], (("raw", 0, len(enc.bits) - 2),))
    with pytest.raises((DecodeError, EncodingFormatError)):
        decode_single(coder, bad)


@pytest.mark.parametrize(
    "inst", [StepInstance(2, 4, (5, 9)), StepInstance(1, 3, (5,))], ids=["M=2", "n=3"]
)
def test_encode_single_refuses_an_instance_of_another_shape(inst):
    comp, adv = get_subject("full", 1, 4, 0)
    coder = single_coder(comp, adv, DEFAULT_PARAMS)
    with pytest.raises(ValueError, match=r"^instance and computer disagree on M or n$"):
        encode_single(coder, inst)
