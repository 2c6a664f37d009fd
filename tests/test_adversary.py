from fractions import Fraction

import pytest
from reference import apply_oracle, final_apply, inner_product

from ttquery.adversary import (
    TOLERANCE,
    PartitionError,
    ZetaReport,
    adversary_bound,
    partition_by_advice,
    sqrt_bracket,
    zeta,
)
from ttquery.model import ModelError
from ttquery.ordered_search import StepInstance
from ttquery.subjects import SubjectError, get_subject


def test_partition_groups_by_advice_string():
    comp, adv = get_subject("advised", 1, 3, 1)
    part = partition_by_advice(comp, adv)
    classes = dict(part.classes)
    assert classes["0"] == (1, 2, 3, 4)
    assert classes["1"] == (5, 6, 7, 8)
    # the lexicographically first class already covers N / 2^k steps
    assert part.selected == "0"
    assert part.steps == classes["0"]
    assert part.b == 4


def test_partition_rejects_multi_block():
    comp, adv = get_subject("full", 2, 2, 0)
    with pytest.raises(PartitionError):
        partition_by_advice(comp, adv)


def test_zeta_zero_for_perfect_distinguisher():
    comp, adv = get_subject("advised", 1, 3, 0)
    part = partition_by_advice(comp, adv)
    rep = zeta(comp, part)
    assert rep.zeta == 0
    assert rep.b == 8
    assert rep.implied_from_zeta == 7 == comp.T
    assert rep.structural_ok


def test_zeta_saturated_for_blind_machine():
    comp, adv = get_subject("zero", 1, 3, 0)
    part = partition_by_advice(comp, adv)
    rep = zeta(comp, part)
    # no queries: neighboring final states are identical
    assert rep.zeta == rep.b - 1 == 7
    assert rep.implied_from_zeta == 0 == comp.T


def test_zeta_frozen_probe_overlap():
    comp, adv = get_subject("probe", 1, 3, 1)
    part = partition_by_advice(comp, adv)
    assert part.b == 4
    rep = zeta(comp, part)
    assert rep.zeta == 2 + Fraction(4096, 1050625)
    assert rep.structural_ok


def _final_state(comp, advice, step):
    """A one-block step's state after the oracle and the final transform."""
    state = apply_oracle(comp, 1, advice, (step,))
    return final_apply(comp.final, state, comp.workspace_dim)


def _reference_zeta(comp, part, epsilon):
    """zeta from the inner products of full final states, built afresh."""
    steps, b = part.steps, part.b
    if b < 2:
        raise PartitionError("selected class needs at least two steps")
    states = [_final_state(comp, part.selected, s) for s in steps]
    pairs = tuple(abs(inner_product(x, y)) for x, y in zip(states, states[1:]))
    z = sum(pairs, Fraction(0))
    lower = Fraction(b - 1 - comp.T)
    _lo, hi = sqrt_bracket(epsilon * (1 - epsilon))
    cap, upper = 2 * hi + TOLERANCE, 2 * hi * (b - 1)
    return ZetaReport(
        zeta=z, b=b, T=comp.T, pairs=pairs, lower_bound=lower,
        structural_ok=z >= lower, implied_from_zeta=(b - 1) - z, pair_cap=cap,
        pairs_ok=all(v <= cap for v in pairs), upper_value=upper,
        upper_ok=z <= upper + TOLERANCE, implied_closed=(1 - 2 * hi) * (b - 1),
    )


@pytest.mark.parametrize(
    "name,k", [("full", 0), ("advised", 1), ("zero", 0), ("probe", 1), ("shortcut", 1)]
)
def test_structural_floor_every_subject(name, k):
    # every n <= 4 the subject takes, at both tolerances, against the
    # reference built from final states
    checked = 0
    for n in range(1, 5):
        try:
            comp, adv = get_subject(name, 1, n, k)
        except SubjectError:
            continue
        part = partition_by_advice(comp, adv)
        for epsilon in (Fraction(0), Fraction(1, 3)):
            try:
                want = _reference_zeta(comp, part, epsilon)
            except PartitionError:
                with pytest.raises(PartitionError, match="at least two steps"):
                    zeta(comp, part, epsilon)
                continue
            rep = zeta(comp, part, epsilon)
            assert rep == want, (n, epsilon)
            assert rep.zeta >= (rep.b - 1) - rep.T
            assert rep.structural_ok
            checked += 1
    assert checked >= 4


def test_zeta_refuses_other_shapes():
    comp, adv = get_subject("advised", 1, 3, 1)
    part = partition_by_advice(comp, adv)
    wide, _ = get_subject("advised", 2, 3, 2)
    with pytest.raises(PartitionError, match="single-block"):
        zeta(wide, part)
    narrow, _ = get_subject("advised", 1, 2, 1)
    with pytest.raises(ModelError, match="shape"):
        zeta(narrow, part)


def test_final_transform_cancels_in_overlaps():
    comp, adv = get_subject("advised", 1, 3, 1)
    advice = adv(StepInstance(1, 3, (1,)))
    lhs = inner_product(_final_state(comp, advice, 1), _final_state(comp, advice, 2))
    rhs = inner_product(apply_oracle(comp, 1, advice, (1,)), apply_oracle(comp, 1, advice, (2,)))
    assert lhs == rhs


def test_sqrt_bracket_perfect_square_is_exact():
    lo, hi = sqrt_bracket(Fraction(9, 16))
    assert lo == hi == Fraction(3, 4)
    assert sqrt_bracket(0) == (0, 0)


def test_sqrt_bracket_encloses_tightly():
    lo, hi = sqrt_bracket(2)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 10**12)


def test_adversary_bound_exact_at_zero_error():
    assert adversary_bound(8, 0, 0) == 7
    assert adversary_bound(8, 1, 0) == 3
    assert adversary_bound(16, 2, 0) == 3


def test_adversary_bound_near_known_decimal():
    v = adversary_bound(8, 0, Fraction(1, 3))
    assert abs(float(v) - 0.4003367089) < 1e-9


def test_adversary_bound_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        adversary_bound(8, 0, Fraction(1, 2))


def test_adversary_bound_is_never_negative_past_n_advice_bits():
    # the selected class holds ceil(N / 2^k) >= 1 steps, so k > n gives 0
    for epsilon in (0, Fraction(1, 3)):
        assert adversary_bound(4, 3, epsilon) == 0
        assert adversary_bound(1, 5, epsilon) == 0
    # where 2^k divides N the value is the old N / 2^k - 1 form, exactly
    lo, hi = sqrt_bracket(Fraction(1, 3) * Fraction(2, 3))
    for N, k in ((8, 0), (8, 3), (16, 2), (2**12, 5)):
        assert adversary_bound(N, k, Fraction(1, 3)) == (1 - (lo + hi)) * (Fraction(N, 2**k) - 1)
