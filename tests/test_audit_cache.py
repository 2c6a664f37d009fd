"""Differential tests of the invariants the lemma audit shares across instances.

The inequality reports and the selection's Rounds records are kept on
the encoding context, the query-mass verdicts on the coder's weight
analyses, and the overlaps behind the audit distances (model.overlap) on
the computer.
Each is checked against a straightforward per-instance evaluation, asked
twice so that a verdict served from a cache is checked as well as the one
that filled it, and each audit distance against reference.distance_sq and
against 2 - 2 <a, b> on the same two states, computed afresh. The
sweeps cover every registry subject at M <= 4 and n <= 3, every l, every
measured width p and two parameter sets.
"""

from fractions import Fraction
from itertools import product
from math import ceil

import pytest
from reference import apply_oracle, distance_sq, inner_product

from ttquery import compression
from ttquery.compression import (
    DEFAULT_PARAMS,
    Coder,
    EncodingContext,
    ErrorParams,
    InequalityReport,
    LwssExhaustedError,
    _substituted_steps,
    audit_instance,
    c_uv_values,
    check_inequalities,
    mass_within_queries,
    profile,
)
from ttquery.ordered_search import enumerate_instances
from ttquery.subjects import get_subject

CERT_PARAMS = ErrorParams(Fraction(0), Fraction(1, 2))
_true_round_count = compression._round_count
_true_rounds = EncodingContext.rounds

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


def _coders(comp, adv):
    for l, p, params in product(
        range(1, comp.M + 1), range(1, min(comp.n, comp.output_width) + 1),
        (DEFAULT_PARAMS, CERT_PARAMS),
    ):
        yield Coder(comp, adv, p, l, params)


def _fresh_inequalities(ctx, prof):
    """The per-instance check_inequalities body, kept as the reference."""
    T = ctx.T
    if T < 1:
        raise ValueError("the length guarantee needs at least one query")
    t = Fraction(T) / ctx.C
    E = ctx.l * (ctx.n - ctx.p - 1 - 2 * ctx.index_width) - (ctx.k + 2)
    case1 = t**ctx.l < Fraction(2) ** E
    a = 2 * ctx.l * ctx.index_width + ctx.k + 2
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


def direct_rounds(ctx, pool):
    """The Rounds record of a pool, from the Fraction rules: m found by
    scanning the quadratic, floors as ceil(pool - t m i)."""
    m = 0
    if ctx.T and pool:
        while ctx.t * (m + 1) ** 2 - (ctx.t - 1) * (m + 1) - pool <= 0:
            m += 1
    floors = tuple(ceil(pool - ctx.t * m * i) for i in range(m + 1))
    return (m, ctx.C / m if m else None, _direct_round_verdict(ctx, pool, m), floors)


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
    for coder in _coders(comp, adv):
        ctx = coder.ctx
        for _ in range(2):
            for inst in instances:
                prof = profile(coder, inst)
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
    case2 = 0
    for coder in _coders(comp, adv):
        ctx = coder.ctx
        # every bad-block count, asked twice so the memoized record is
        # checked as well as the one that filled it
        for _ in range(2):
            for bad in range(M + 1):
                assert ctx.rounds(bad) == direct_rounds(ctx, bad), (ctx, bad)
        # the direct verdict rejects the counts next to the true one
        for bad in range(1, M + 1) if ctx.T else ():
            m = ctx.rounds(bad).m
            assert not any(_direct_round_verdict(ctx, bad, w) for w in (m - 1, m + 1) if w >= 0)
        for inst in enumerate_instances(M, n):
            audit = audit_instance(coder, inst)
            if audit.case == 2:
                prof = profile(coder, inst)
                want = _direct_round_verdict(ctx, M - prof.l_prime, audit.selection.m)
                assert audit.selection_m_ok and want, (ctx, inst)
                case2 += 1
    assert case2 or subject in ("full", "advised")


# probe M=4 n=2 k=4 l=4 under the certifying parameters: every instance
# with a step outside {1, 2} goes to case 2, with pools of 1 to 4 bad blocks


def _case2_audits():
    """The case-2 audits of the probe sweep; None where the selection ran
    out of candidates, which a round count past the true one may do."""
    comp, adv = get_subject("probe", 4, 2, 4)
    coder = Coder(comp, adv, 1, 4, CERT_PARAMS)
    audits = []
    for inst in enumerate_instances(4, 2):
        try:
            audit = audit_instance(coder, inst)
        except LwssExhaustedError:
            audit = None
        if audit is None or audit.case == 2:
            audits.append(audit)
    return coder.ctx, audits


def test_audit_flags_a_round_count_off_by_one(monkeypatch):
    ctx, audits = _case2_audits()
    assert len(audits) == 240 and all(a.ok for a in audits)
    monkeypatch.setattr(
        compression, "_round_count", lambda t, pool: _true_round_count(t, pool) + 1
    )
    ctx, audits = _case2_audits()
    assert not any(ctx.rounds(pool).m_ok for pool in range(5))
    done = [a for a in audits if a is not None]
    assert done and not any(a.selection_m_ok or a.ok for a in done)


def test_audit_flags_survivor_floors_shifted_by_one(monkeypatch):
    def shifted(self, pool):
        found = _true_rounds(self, pool)
        return found._replace(floors=tuple(f + 1 for f in found.floors))

    monkeypatch.setattr(EncodingContext, "rounds", shifted)
    _, audits = _case2_audits()
    assert len(audits) == 240
    assert not any(a.selection_floor_ok or a.ok for a in audits)
    assert all(a.selection_m_ok for a in audits)


@pytest.mark.parametrize("subject, M, n, k", CONFIGS, ids=IDS)
def test_cached_mass_verdict_matches_uncached(subject, M, n, k):
    comp, adv = get_subject(subject, M, n, k)
    advices = ["".join(bits) for bits in product("01", repeat=k)]
    for coder in _coders(comp, adv):
        ctx = coder.ctx
        for _ in range(2):
            for advice in advices:
                got = mass_within_queries(coder, advice)
                assert got == _direct_mass_ok(comp, advice), (ctx, advice)
        for inst in enumerate_instances(M, n):
            audit = audit_instance(coder, inst)
            assert audit.mass_ok == _direct_mass_ok(comp, adv(inst))


@pytest.mark.parametrize("subject, M, n, k", CONFIGS, ids=IDS)
def test_audit_distances_match_distance_sq(subject, M, n, k):
    comp, adv = get_subject(subject, M, n, k)
    checked = 0
    for coder in _coders(comp, adv):
        ctx = coder.ctx
        cut = ctx.n - ctx.p
        # the second pass reads every distance from the computer's memo
        for _ in range(2):
            for inst in enumerate_instances(M, n):
                audit = audit_instance(coder, inst)
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
    keys = set(comp.overlaps)
    ordinals = {cached.ordinal for cached in comp._states.values()}
    assert all(len(key) == 3 and key[0] in ordinals for key in keys)
    if subject == "probe":
        assert 0 < len(keys) < checked // 4
    fresh, _ = get_subject(subject, M, n, k)
    assert fresh.overlaps == {}
