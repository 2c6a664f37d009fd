"""Differential tests of instances built from names already in hand.

The sweep and both decoders build each StepInstance through the unchecked
StepInstance._named, from steps and n-bit names they already hold. Every
such instance is checked field by field, names included, against the
public constructor's: the whole sweep at M <= 4 and n <= 4, and every
decoded instance of every registry subject at M <= 3 and n <= 3, built-in
and loaded from its exported doc, under both schemes.
"""

from inspect import GEN_CREATED, getgeneratorstate
from itertools import product

import pytest

from ttquery.compression import (
    Coder,
    DecodeError,
    LwssExhaustedError,
    _single_check,
    decode,
    decode_single,
    encode,
    encode_single,
)
from ttquery.model import advice_from_doc, advice_to_doc, computer_from_doc, computer_to_doc
from ttquery.ordered_search import BudgetExceededError, StepInstance, enumerate_instances
from ttquery.subjects import REGISTRY, get_subject


def _fields(inst):
    return (inst.M, inst.n, inst.steps, inst.names)


def _checked(inst):
    """The public constructor's instance with inst's steps."""
    assert all(type(s) is int for s in inst.steps), inst
    return StepInstance(inst.M, inst.n, inst.steps)


@pytest.mark.parametrize("M, n", list(product(range(1, 5), range(1, 5))))
def test_the_sweep_builds_what_the_constructor_builds(M, n):
    sweep = list(enumerate_instances(M, n))
    steps = list(product(range(1, 2**n + 1), repeat=M))
    assert [inst.steps for inst in sweep] == steps
    for inst in sweep:
        assert type(inst) is StepInstance
        assert _fields(inst) == _fields(_checked(inst))


def test_asking_for_a_sweep_builds_no_name_table():
    # 2**64 names would never fit: only iterating the sweep builds them
    sweep = enumerate_instances(1, 64)
    assert getgeneratorstate(sweep) == GEN_CREATED
    with pytest.raises(BudgetExceededError):
        enumerate_instances(1, 64, 4096)


@pytest.mark.parametrize("M, n", [(0, 2), (2, 0)])
def test_a_sweep_of_no_blocks_or_no_bits_is_refused_when_iterated(M, n):
    sweep = enumerate_instances(M, n)
    with pytest.raises(ValueError, match=r"^need M >= 1 and n >= 1$"):
        next(sweep)


def _advice_len(name, M):
    return {"advised": M, "probe": M, "shortcut": 1}.get(name, 0)


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


def _subject(name, M, n, from_doc):
    k = _advice_len(name, M)
    comp, adv = get_subject(name, M, n, k)
    if from_doc:
        advice = ["".join(bits) for bits in product("01", repeat=k)]
        comp = computer_from_doc(computer_to_doc(comp, list(product(range(1, M + 1), advice))))
        adv = advice_from_doc(advice_to_doc(adv, enumerate_instances(M, n)))
    return comp, adv


def _schemes(comp, adv, M, n):
    """(encode, decode, coder) at p in {1, n} and l in {1, M}, and the
    single scheme where the subject meets its shape."""
    for p, l in product(sorted({1, n}), sorted({1, M})):
        if p <= comp.output_width:
            yield encode, decode, Coder(comp, adv, p, l)
    try:
        p = _single_check(comp)
    except ValueError:
        return
    yield encode_single, decode_single, Coder(comp, adv, p, 1)


@pytest.mark.parametrize("name, M, n, from_doc", PARAMS)
def test_decoded_instances_are_what_the_constructor_builds(name, M, n, from_doc):
    comp, adv = _subject(name, M, n, from_doc)
    decoded = 0
    for encode_one, decode_one, coder in _schemes(comp, adv, M, n):
        for inst in enumerate_instances(M, n):
            try:
                got = decode_one(coder, encode_one(coder, inst))
            except (DecodeError, LwssExhaustedError):
                continue
            assert _fields(got) == _fields(_checked(got)), (coder.ctx.p, coder.ctx.l, inst)
            # a machine that cannot search (zero) may decode another instance
            decoded += got == inst
    assert decoded
