"""Differential tests of the invariants the lemma audit shares across instances.

The inequality reports and round-count verdicts are kept on the encoding
context, the query-mass verdicts and the audit distances on the computer.
Each is checked against a straightforward per-instance evaluation, asked
twice so that a verdict served from a cache is checked as well as the one
that filled it, and each audit distance against statevec.distance_sq and
against 2 - 2 <a, b> on the same two states, computed afresh. The
sweeps cover every registry subject at M <= 4 and n <= 3, every l, every
measured width p and two parameter sets.
"""

from fractions import Fraction
from itertools import product

import pytest

from ttquery.compression import (
    DEFAULT_PARAMS,
    EncodingContext,
    ErrorParams,
    InequalityReport,
    _round_count,
    _substituted_steps,
    audit_instance,
    c_uv_values,
    check_inequalities,
    mass_within_queries,
    profile,
)
from ttquery.model import apply_oracle
from ttquery.ordered_search import enumerate_instances
from ttquery.statevec import distance_sq, inner_product
from ttquery.subjects import get_subject

CERT_PARAMS = ErrorParams(Fraction(0), Fraction(1, 2))

# (subject, M, n, k): every registry subject, M <= 4 and n <= 3.
CONFIGS = (
    ("full", 2, 2, 0),
    ("full", 4, 1, 0),
    ("full", 1, 3, 0),
    ("advised", 2, 2, 2),
    ("advised", 2, 3, 1),
    ("zero", 2, 2, 0),
    ("zero", 4, 1, 0),
    ("probe", 2, 3, 2),
    ("probe", 4, 2, 4),
    ("shortcut", 1, 3, 1),
)
IDS = ["{}-{}-{}-{}".format(*c) for c in CONFIGS]


def _contexts(comp, M, n, k, params_list=(DEFAULT_PARAMS, CERT_PARAMS)):
    for l, p, params in product(
        range(1, M + 1), range(1, min(n, comp.output_width) + 1), params_list
    ):
        yield EncodingContext(M=M, n=n, p=p, k=k, T=comp.T, l=l, params=params)


def _fresh_inequalities(ctx, prof):
    """The per-instance check_inequalities body, kept as the reference."""
    T = ctx.T
    if T < 1:
        raise ValueError("the length guarantee needs at least one query")
    t = Fraction(T) / ctx.C
    E = ctx.l * (ctx.n - ctx.p - 1 - 2 * ctx.log_M) - (ctx.k + 2)
    case1 = t**ctx.l < Fraction(2) ** E
    a = 2 * ctx.l * ctx.log_M + ctx.k + 2
    case2 = ctx.p * ctx.p * ctx.C * (ctx.M - ctx.l) > a * a * Fraction(T)
    case = 1 if ctx.l <= prof.l_prime else 2
    certified = case1 if case == 1 else case2
    first, second = c_uv_values(ctx)
    cu = first if case == 1 else second
    matches = None if cu is None else ((Fraction(T) < cu) == certified)
    return InequalityReport(case, case1, case2, certified, cu, matches)


def _direct_round_verdict(ctx, bad_count, m):
    """The audit's round-count rule, evaluated from scratch."""
    if ctx.T == 0 or not bad_count:
        return m == 0

    def quad(x):
        return ctx.t * x * x - (ctx.t - 1) * x - bad_count

    return quad(m) <= 0 < quad(m + 1) and ctx.C * bad_count <= ctx.T * (m + 1) ** 2


def _direct_mass_ok(comp, advice):
    """Every block's own query mass against T, from the raw prequery function."""
    for block in range(1, comp.M + 1):
        mass = Fraction(0)
        for (words, _ws), amp in comp.prequery(block, advice).items():
            mass += amp * amp * len({w for w in words if w.block == block})
        if mass > comp.T:
            return False
    return True


@pytest.mark.parametrize("subject, M, n, k", CONFIGS, ids=IDS)
def test_shared_inequality_report_matches_fresh_computation(subject, M, n, k):
    comp, adv = get_subject(subject, M, n, k)
    instances = list(enumerate_instances(M, n))
    for ctx in _contexts(comp, M, n, k):
        for _ in range(2):
            for inst in instances:
                prof = profile(comp, adv, inst, ctx.p, ctx.params)
                if comp.T == 0:
                    with pytest.raises(ValueError):
                        check_inequalities(ctx, prof)
                    continue
                got = check_inequalities(ctx, prof)
                assert got == _fresh_inequalities(ctx, prof), (ctx, inst)
                assert got is ctx.inequality_reports[got.case - 1]
        if comp.T == 0:
            with pytest.raises(ValueError):
                ctx.inequality_reports


@pytest.mark.parametrize("subject, M, n, k", CONFIGS, ids=IDS)
def test_round_count_verdict_matches_direct_evaluation(subject, M, n, k):
    comp, adv = get_subject(subject, M, n, k)
    checked = wrong = 0
    for ctx in _contexts(comp, M, n, k):
        # the true round count of every bad-block count first, then wrong
        # counts for the same bad-block counts, then all of it again from
        # the filled cache
        queries = [(bad, _round_count(ctx.t, bad)) for bad in range(M + 1)]
        queries += [
            (bad, m + delta)
            for bad, m in list(queries)
            for delta in (-1, 1, 2)
            if m + delta >= 0
        ]
        for _ in range(2):
            for bad, m in queries:
                want = _direct_round_verdict(ctx, bad, m)
                assert ctx.round_count_ok(bad, m) == want, (ctx, bad, m)
                checked += 1
                wrong += not want
        for inst in enumerate_instances(M, n):
            audit = audit_instance(ctx, comp, adv, inst)
            if audit.case == 2:
                prof = profile(comp, adv, inst, ctx.p, ctx.params)
                want = _direct_round_verdict(ctx, M - prof.l_prime, audit.selection.m)
                assert audit.selection_m_ok and want, (ctx, inst)
    assert checked and wrong


@pytest.mark.parametrize("subject, M, n, k", CONFIGS, ids=IDS)
def test_cached_mass_verdict_matches_uncached(subject, M, n, k):
    comp, adv = get_subject(subject, M, n, k)
    advices = ["".join(bits) for bits in product("01", repeat=k)]
    for ctx in _contexts(comp, M, n, k):
        for _ in range(2):
            for advice in advices:
                got = mass_within_queries(comp, advice, ctx.p, ctx.C)
                assert got == _direct_mass_ok(comp, advice), (ctx, advice)
        for inst in enumerate_instances(M, n):
            audit = audit_instance(ctx, comp, adv, inst)
            assert audit.mass_ok == _direct_mass_ok(comp, adv(inst))
    assert set(comp.mass_checks) <= set(product(advices, range(1, n + 1)))
    fresh, _ = get_subject(subject, M, n, k)
    assert fresh.mass_checks == {}


@pytest.mark.parametrize("subject, M, n, k", CONFIGS, ids=IDS)
def test_audit_distances_match_distance_sq(subject, M, n, k):
    comp, adv = get_subject(subject, M, n, k)
    checked = 0
    for ctx in _contexts(comp, M, n, k):
        cut = ctx.n - ctx.p
        # the second pass reads every distance from the computer's memo
        for _ in range(2):
            for inst in enumerate_instances(M, n):
                audit = audit_instance(ctx, comp, adv, inst)
                if audit.case == 1:
                    assert audit.distances == ()
                    continue
                f = adv(inst)
                names = {i: inst.step_bits(i) for i in range(1, M + 1)}
                prefix_of = {i: names[i][:cut] for i in names}
                pending = set(audit.selection.W)
                want = []
                for pivot in audit.selection.W:
                    steps = _substituted_steps(M, ctx.p, names, prefix_of, pending)
                    a = apply_oracle(comp, pivot, f, steps)
                    b = apply_oracle(comp, pivot, f, inst.steps)
                    want.append(2 - 2 * inner_product(a, b))
                    assert want[-1] == distance_sq(a, b)
                    pending.discard(pivot)
                assert audit.distances == tuple(want), (ctx, inst)
                assert all(type(d) is Fraction for d in audit.distances)
                checked += len(want)
    keys = set(comp.distances)
    assert all(len(key) == 4 and key[0] in range(1, M + 1) for key in keys)
    if subject == "probe":
        assert 0 < len(keys) < checked // 4
    fresh, _ = get_subject(subject, M, n, k)
    assert fresh.distances == {}
