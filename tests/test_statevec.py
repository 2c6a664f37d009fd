import re
import time
from fractions import Fraction

import pytest

from reference import distance_sq, inner_product, measure_register, norm_sq

from ttquery.model import ModelError
from ttquery.statevec import (
    as_rational,
    checked_epsilon,
    printable,
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


@pytest.mark.parametrize("value", [True, False, None, 1 + 0j], ids=repr)
def test_as_rational_refuses_bools_and_other_types(value):
    message = re.escape(f"{value!r} is not an int, a Fraction or a 'p/q' string")
    with pytest.raises(TypeError, match=f"^{message}$"):
        as_rational(value)


@pytest.mark.parametrize(
    "value",
    ["0.5", "1e3", "1e-5000", "1e-99999999", " 1/2", "1/2 ", "+1", "1/-2", "1 /2", "", "x"],
    ids=repr,
)
def test_as_rational_refuses_strings_rational_str_never_writes(value):
    message = re.escape(f"{value!r} is not an int, a Fraction or a 'p/q' string")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_rational(value)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("value", ["1/0", "-0/0", "1/000"])
def test_as_rational_refuses_a_zero_denominator(value):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(value))} has a zero denominator$"):
        as_rational(value)


@pytest.mark.parametrize("value", ["1" * 5000, "1/" + "3" * 5000], ids=["numerator", "denominator"])
def test_as_rational_refuses_a_part_past_the_digit_limit_in_one_line(value):
    part = "has a part past Python's integer digit limit"
    message = re.escape(f"'{value[:12]}...' ({len(value)} characters) {part}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        as_rational(value)


@pytest.mark.parametrize(
    "value", [Fraction(-7, 3), Fraction(10**4000, 3), Fraction(0), Fraction(5)], ids=str
)
def test_as_rational_reads_back_what_rational_str_writes(value):
    assert as_rational(rational_str(value)) == value


def test_rational_str():
    assert rational_str(Fraction(3, 5)) == "3/5"
    assert rational_str(Fraction(4)) == "4"
    assert rational_str(Fraction(0)) == "0"


def test_printable_gives_a_part_past_the_digit_limit_by_its_bits():
    assert printable(Fraction(3, 5)) == "3/5"
    assert printable(7) == "7"
    assert printable(10**4299) == "1" + "0" * 4299
    too_long = "(a number with a 14285-bit part, too long to print)"
    assert printable(10**4300) == too_long
    assert printable(Fraction(1, 10**4300)) == too_long


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
