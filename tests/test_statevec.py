from fractions import Fraction

import pytest

from reference import distance_sq, inner_product, measure_register, norm_sq

from ttquery.model import ModelError
from ttquery.statevec import (
    as_rational,
    checked_epsilon,
    rational_str,
)


def test_as_rational_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational("3/5") == Fraction(3, 5)
    assert as_rational("-7") == Fraction(-7)
    assert as_rational(Fraction(1, 4)) == Fraction(1, 4)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_rational_str():
    assert rational_str(Fraction(3, 5)) == "3/5"
    assert rational_str(Fraction(4)) == "4"
    assert rational_str(Fraction(0)) == "0"


def test_checked_epsilon_names_the_broken_side():
    assert checked_epsilon("1/3") == Fraction(1, 3)
    assert checked_epsilon(0) == 0
    with pytest.raises(ValueError, match="^epsilon must be nonnegative$"):
        checked_epsilon(Fraction(-1, 5))
    with pytest.raises(ValueError, match="^epsilon must be below 1/2$"):
        checked_epsilon("1/2")


def test_list_and_answer_indices_need_no_bound():
    # only the workspace is sized: huge list and answer indices are labels
    big = (10**40, 2**200, 1)
    s = {big: Fraction(1)}
    assert norm_sq(s) == 1
    assert measure_register(s, 2, 1) == {1: Fraction(1)}


def test_norm_and_inner_product():
    a = {(0, 0, 0): Fraction(3, 5), (0, 0, 1): Fraction(4, 5)}
    b = {(0, 0, 0): Fraction(4, 5), (0, 0, 1): Fraction(3, 5)}
    assert norm_sq(a) == 1
    assert inner_product(a, b) == Fraction(24, 25)


def test_distance_sq_known_value():
    a = {(0, 0, 0): Fraction(1)}
    b = {(0, 0, 0): Fraction(3, 5), (0, 0, 1): Fraction(4, 5)}
    assert distance_sq(a, b) == Fraction(4, 5)


def test_measure_register_groups_leading_split():
    s = {
        (0, 0, 0): Fraction(1, 2),
        (0, 1, 1): Fraction(1, 2),
        (1, 0, 2): Fraction(-1, 2),
        (1, 1, 3): Fraction(1, 2),
    }
    probs = measure_register(s, 4, 1)
    # the leading 2-way split of the workspace separates {0,1} from {2,3}
    assert probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_measure_register_sums_to_norm():
    s = {(0, 0, 0): Fraction(3, 5), (0, 0, 2): Fraction(4, 5)}
    probs = measure_register(s, 4, 2)
    assert sum(probs.values()) == 1
    assert probs[0] == Fraction(9, 25)


def test_measure_register_needs_divisible_workspace():
    s = {(0, 0, 0): Fraction(1)}
    assert measure_register(s, 6, 1) == {0: Fraction(1)}
    with pytest.raises(ModelError):
        measure_register(s, 6, 2)
