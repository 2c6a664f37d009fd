from fractions import Fraction
from itertools import product

import pytest
from machines import ADVICE_LENGTHS, build_neighbor_probe, build_single_query
from reference import max_error

from ttquery.ordered_search import StepInstance, enumerate_instances
from ttquery.subjects import (
    PROBE_HEAVY,
    PROBE_LIGHT,
    REGISTRY,
    SubjectError,
    get_subject,
    query_count,
)


def _sweep(M, n):
    return list(enumerate_instances(M, n, 70000))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_full_query_is_exact(n):
    comp, adv = get_subject("full", 1, n, 0)
    assert comp.T == 2**n - 1
    assert max_error(comp, adv, n, _sweep(1, n)) == 0


def test_full_query_multi_block():
    comp, adv = get_subject("full", 2, 2, 0)
    assert comp.T == 3
    assert max_error(comp, adv, 2, _sweep(2, 2)) == 0


@pytest.mark.parametrize("n,k", [(3, 0), (3, 1), (3, 3), (4, 2)])
def test_advised_single_block(n, k):
    comp, adv = get_subject("advised", 1, n, k)
    assert comp.T == 2 ** (n - k) - 1
    assert max_error(comp, adv, n, _sweep(1, n)) == 0


def test_advised_advice_shorter_than_blocks():
    # k=1 at M=2 gives no whole bit per block; queries cannot shrink
    comp, adv = get_subject("advised", 2, 2, 1)
    assert comp.T == 3
    assert max_error(comp, adv, 2, _sweep(2, 2)) == 0


def test_advised_full_advice_needs_no_queries():
    comp, adv = get_subject("advised", 1, 2, 2)
    assert comp.T == 0
    assert max_error(comp, adv, 2, _sweep(1, 2)) == 0


def test_zero_subject_guesses():
    comp, adv = get_subject("zero", 1, 2, 0)
    assert comp.T == 0
    errs = {max_error(comp, adv, 2, [i]) for i in _sweep(1, 2)}
    assert Fraction(0) in errs and Fraction(1) in errs


def test_probe_answers_its_advice_bit():
    comp, adv = get_subject("probe", 2, 2, 2)
    assert comp.T == 1 and comp.output_width == 1
    assert max_error(comp, adv, 1, _sweep(2, 2)) == 0


def test_probe_amplitudes_are_unbalanced():
    assert PROBE_HEAVY**2 + PROBE_LIGHT**2 == 1
    assert PROBE_HEAVY**2 > Fraction(255, 256)


def test_shortcut_is_exact_on_two_cells():
    comp, adv = get_subject("shortcut", 1, 4, 1)
    assert comp.T == 12
    assert max_error(comp, adv, 2, _sweep(1, 4)) == 0


def test_shortcut_duplicate_lists_when_multiple_of_four():
    comp, adv = get_subject("shortcut", 1, 4, 1)
    inst = StepInstance(1, 4, (8,))
    pre = comp.prequery_state(1, adv(inst)).amps
    ((key, _),) = pre.items()
    words, _ws = key
    assert len(set(words)) == 1  # the same location queried T times


def test_single_query_queries_neighbor_block():
    comp, adv = build_single_query(2, 2)
    pre = comp.prequery_state(1, "").amps
    ((key, _),) = pre.items()
    assert key[0][0].block == 2


def test_neighbor_probe_requires_three_blocks():
    with pytest.raises(SubjectError):
        build_neighbor_probe(2, 2)
    comp, adv = build_neighbor_probe(3, 2)
    assert comp.T == 1
    assert max_error(comp, adv, 1, _sweep(3, 2)) == 0


def test_registry_names():
    assert set(REGISTRY) == {"full", "advised", "zero", "probe", "shortcut"}
    # so that every registry subject reaches the differential tests' grid
    assert ADVICE_LENGTHS.keys() == set(REGISTRY)
    with pytest.raises(SubjectError):
        get_subject("nope", 1, 2, 0)


@pytest.mark.parametrize(
    "name,M,n,k",
    [
        ("full", 1, 2, 1),  # full takes no advice
        ("advised", 1, 2, 9),  # more advice bits than the name has
        ("probe", 2, 2, 1),  # probe needs exactly M bits
        ("shortcut", 2, 2, 1),  # single block only
        ("shortcut", 1, 1, 1),  # needs n >= 2
    ],
)
def test_subject_parameter_validation(name, M, n, k):
    with pytest.raises(SubjectError):
        get_subject(name, M, n, k)


@pytest.mark.parametrize("name", REGISTRY)
def test_query_count_matches_the_built_subject(name):
    built = 0
    for M, n, k in product((1, 2, 4), range(1, 5), range(0, 6)):
        try:
            want = get_subject(name, M, n, k)[0].T
        except SubjectError as e:
            with pytest.raises(SubjectError) as counted:
                query_count(name, M, n, k)
            assert str(counted.value) == str(e), (M, n, k)
            continue
        assert query_count(name, M, n, k) == want, (M, n, k)
        built += 1
    assert built


def test_query_count_refuses_an_unknown_name_like_get_subject():
    with pytest.raises(SubjectError) as built:
        get_subject("nope", 1, 2, 0)
    with pytest.raises(SubjectError) as counted:
        query_count("nope", 1, 2, 0)
    assert str(counted.value) == str(built.value)
