from fractions import Fraction

import pytest

from ttquery.statevec import (
    DimensionMismatchError,
    SparseState,
    as_rational,
    distance_sq,
    inner_product,
    measure_register,
    norm_sq,
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


def test_state_drops_zero_amplitudes():
    s = SparseState(2, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(0)})
    assert len(s) == 1
    assert s.amps == {(0, 0, 0): Fraction(1)}


def test_state_rejects_cell_outside_workspace():
    with pytest.raises(DimensionMismatchError):
        SparseState(2, {(0, 0, 2): Fraction(1)})
    with pytest.raises(DimensionMismatchError):
        SparseState(2, {(0, 0, -1): Fraction(1)})


def test_state_is_immutable():
    s = SparseState(2, {(0, 0, 0): Fraction(1)})
    with pytest.raises(AttributeError):
        s.workspace_dim = 4


def test_list_and_answer_indices_need_no_bound():
    big = (10**40, 2**200, 1)
    s = SparseState(2, {big: Fraction(1)})
    assert s.amps == {big: Fraction(1)}


def test_norm_and_inner_product():
    a = SparseState(2, {(0, 0, 0): Fraction(3, 5), (0, 0, 1): Fraction(4, 5)})
    b = SparseState(2, {(0, 0, 0): Fraction(4, 5), (0, 0, 1): Fraction(3, 5)})
    assert norm_sq(a) == 1
    assert inner_product(a, b) == Fraction(24, 25)


def test_distance_sq_known_value():
    a = SparseState(2, {(0, 0, 0): Fraction(1)})
    b = SparseState(2, {(0, 0, 0): Fraction(3, 5), (0, 0, 1): Fraction(4, 5)})
    assert distance_sq(a, b) == Fraction(4, 5)


def test_space_mismatch_rejected():
    a = SparseState(2, {(0, 0, 0): Fraction(1)})
    b = SparseState(3, {(0, 0, 0): Fraction(1)})
    with pytest.raises(DimensionMismatchError):
        inner_product(a, b)
    with pytest.raises(DimensionMismatchError):
        distance_sq(a, b)


def test_measure_register_groups_leading_split():
    s = SparseState(
        4,
        {(0, 0, 0): Fraction(1, 2), (0, 1, 1): Fraction(1, 2), (1, 0, 2): "-1/2", (1, 1, 3): "1/2"},
    )
    probs = measure_register(s, 1)
    # the leading 2-way split of the workspace separates {0,1} from {2,3}
    assert probs == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_measure_register_sums_to_norm():
    s = SparseState(4, {(0, 0, 0): Fraction(3, 5), (0, 0, 2): Fraction(4, 5)})
    probs = measure_register(s, 2)
    assert sum(probs.values()) == 1
    assert probs[0] == Fraction(9, 25)


def test_measure_register_needs_divisible_workspace():
    s = SparseState(6, {(0, 0, 0): Fraction(1)})
    assert measure_register(s, 1) == {0: Fraction(1)}
    with pytest.raises(DimensionMismatchError):
        measure_register(s, 2)
