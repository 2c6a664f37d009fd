from fractions import Fraction
from itertools import product

import pytest

from ttquery.model import _answer_table, _table_answer
from ttquery.ordered_search import (
    BudgetExceededError,
    StepInstance,
    bin_n,
    enumerate_instances,
    eval_G,
    parse_instance,
    rank_of,
)


def test_bin_n_and_rank_of():
    assert bin_n(3, 1) == "000"
    assert bin_n(3, 8) == "111"
    assert rank_of("010") == 3
    for r in range(1, 17):
        assert rank_of(bin_n(4, r)) == r


def test_bin_n_range_checked():
    with pytest.raises(ValueError):
        bin_n(2, 5)
    with pytest.raises(ValueError):
        bin_n(2, 0)


def test_answer_is_step_threshold():
    inst = StepInstance(1, 3, (5,))

    def answer(rank):
        return _table_answer(_answer_table(((1, rank),)), inst.steps)

    assert answer(4) == 0
    assert answer(5) == 1
    assert answer(8) == 1


def test_instance_validation():
    with pytest.raises(ValueError):
        StepInstance(2, 2, (1,))
    with pytest.raises(ValueError):
        StepInstance(1, 2, (5,))


def test_literal_roundtrip():
    inst = StepInstance(2, 3, (3, 7))
    text = inst.literal()
    assert text == "M=2 n=3 steps=3,7"
    assert parse_instance(text) == inst


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_instance("M=2 steps=1,2")
    with pytest.raises(ValueError):
        parse_instance("M=1 n=2 steps=9")


@pytest.mark.parametrize(
    "text, message",
    [
        ("M=1 n=2 steps=3 bogus=1", "unknown key 'bogus'"),
        ("M=2 M=1 n=2 steps=3", "key 'M' repeated"),
        ("M=1 n=2 steps=3 steps=2", "key 'steps' repeated"),
    ],
)
def test_parse_refuses_unknown_and_repeated_keys(text, message):
    with pytest.raises(ValueError, match=message):
        parse_instance(text)


@pytest.mark.parametrize("step", [2.7, 2.0, "3", Fraction(3), None])
def test_steps_must_be_integers(step):
    # a float used to be truncated to an int: 2.7 became step 2
    with pytest.raises(ValueError, match="steps must be integers"):
        StepInstance(1, 2, (step,))


def _every_small_instance():
    for M, n in product((1, 2, 3), (1, 2, 3, 4)):
        yield from enumerate_instances(M, n)
    yield from enumerate_instances(4, 2)


def test_names_are_bin_n_of_each_step():
    count = 0
    for inst in _every_small_instance():
        assert inst.names == tuple(bin_n(inst.n, s) for s in inst.steps), inst
        for block in range(1, inst.M + 1):
            assert inst.step_bits(block) == bin_n(inst.n, inst.step(block))
        count += 1
    assert count == sum(2 ** (M * n) for M, n in product((1, 2, 3), (1, 2, 3, 4))) + 256


def test_names_keep_the_range_errors():
    inst = StepInstance(2, 3, (3, 6))
    for block in (0, 3):
        with pytest.raises(ValueError, match="outside 1..2"):
            inst.step_bits(block)
        with pytest.raises(ValueError, match="outside 1..2"):
            eval_G(inst, block, 1)
    with pytest.raises(ValueError, match="output width"):
        eval_G(inst, 1, 4)
    # names is derived, so it takes no part in equality or the literal
    assert inst == StepInstance(2, 3, (3, 6)) and repr(inst).count("names") == 0


def test_eval_G_is_answer_suffix():
    inst = StepInstance(2, 3, (3, 6))
    assert inst.step_bits(1) == "010"
    assert eval_G(inst, 1, 3) == "010"
    assert eval_G(inst, 1, 1) == "0"
    assert eval_G(inst, 2, 2) == "01"


def test_enumerate_is_lexicographic_and_complete():
    insts = list(enumerate_instances(2, 1, 100))
    assert len(insts) == (2**1) ** 2 == 4
    assert [i.steps for i in insts] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_budget_refusal_precedes_enumeration():
    with pytest.raises(BudgetExceededError):
        list(enumerate_instances(2, 3, 63))
    # exactly at the limit is fine
    assert len(list(enumerate_instances(2, 3, 64))) == 64


def test_budget_is_checked_when_the_sweep_is_requested():
    with pytest.raises(BudgetExceededError):
        enumerate_instances(2, 3, 63)  # no next() needed
    # 2**(10**12) instances would not fit in memory; the refusal never counts them
    with pytest.raises(BudgetExceededError):
        enumerate_instances(10**6, 10**6, 4096)


def test_budget_refusal_matches_instance_count():
    for M in range(1, 4):
        for n in range(1, 4):
            for budget in range(0, 2 ** (M * n) + 2):
                try:
                    enumerate_instances(M, n, budget)
                    refused = False
                except BudgetExceededError:
                    refused = True
                assert refused == ((2**n) ** M > budget), (M, n, budget)
