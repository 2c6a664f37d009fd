"""Differential tests of instances built from names already in hand.

The sweep and both decoders build each StepInstance through the unchecked
StepInstance._named, from steps and n-bit names they already hold. Every
such instance is checked field by field, names included, against the
public constructor's: the whole sweep at M <= 4 and n <= 4, and every
decoded instance of every subject of the shared grid (machines.grid_params),
built in and loaded from its exported docs, under both schemes.
"""

from inspect import GEN_CREATED, getgeneratorstate
from itertools import product

import pytest
from machines import grid_params, subject, sweep_coders

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
from ttquery.ordered_search import BudgetExceededError, StepInstance, enumerate_instances


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


def _schemes(comp, adv, M, n):
    """(encode, decode, coder) at p in {1, n} and l in {1, M}, and the
    single scheme where the subject meets its shape."""
    for coder in sweep_coders(comp, adv):
        yield encode, decode, coder
    try:
        p = _single_check(comp)
    except ValueError:
        return
    yield encode_single, decode_single, Coder(comp, adv, p, 1)


@pytest.mark.parametrize("name, M, n, k, from_doc", grid_params())
def test_decoded_instances_are_what_the_constructor_builds(name, M, n, k, from_doc):
    comp, adv = subject(name, M, n, k, from_doc)
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
