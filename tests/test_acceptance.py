"""Acceptance gate: seven checks, one verdict line each.

Each test prints and records a single "criterion N: PASS/FAIL" line; the
recorded lines are replayed in the terminal summary. The checks run over
exhaustive instance sweeps, so everything here is exact arithmetic end
to end.
"""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from machines import build_single_query

from ttquery.adversary import adversary_bound, partition_by_advice, zeta
from ttquery.compression import (
    DEFAULT_PARAMS,
    Coder,
    EncodingContext,
    ErrorParams,
    audit_instance,
    check_inequalities,
    decode,
    decode_single,
    encode,
    encode_single,
    expected_length,
    lwss,
    profile,
    single_coder,
    verify_pigeonhole,
)
from reference import max_error
from ttquery.ordered_search import StepInstance, enumerate_instances, parse_instance
from ttquery.subjects import get_subject

CERT_PARAMS = ErrorParams(Fraction(0), Fraction(1, 2))

# Sweep plan shared by the roundtrip, census, and audit checks. The exact
# machines are always in case 1, so the zero-query and probe subjects ride
# along to reach case 2 through the same pipeline.
SWEEP_PLAN = (
    (2, 3, 1, 0, "full"),
    (2, 3, 1, 0, "advised"),
    (2, 3, 1, 0, "zero"),
    (2, 2, 1, 0, "full"),
    (2, 2, 1, 0, "advised"),
    (2, 2, 1, 0, "zero"),
    (2, 2, 1, 2, "advised"),
    (2, 2, 1, 2, "probe"),
    (2, 3, 1, 2, "advised"),
    (2, 3, 1, 2, "probe"),
)


@dataclass
class SweepRecord:
    label: str
    ctx: EncodingContext
    computer: object
    advice_fn: object
    instances: list
    encodings: dict
    decoded: dict
    audits: dict
    census: object


@pytest.fixture(scope="module")
def sweeps():
    records = []
    for M, n, p, k, name in SWEEP_PLAN:
        computer, advice_fn = get_subject(name, M, n, k)
        instances = list(enumerate_instances(M, n, 4096))
        for l in (1, M):
            coder = Coder(computer, advice_fn, p, l, DEFAULT_PARAMS)
            encodings, decoded, audits = {}, {}, {}
            for inst in instances:
                enc = encode(coder, inst)
                encodings[inst] = enc
                try:
                    decoded[inst] = decode(coder, enc)
                except Exception:
                    decoded[inst] = None
                audits[inst] = audit_instance(coder, inst)
            census = verify_pigeonhole(coder)
            records.append(
                SweepRecord(
                    f"{name}(M={M},n={n},k={k}) l={l}",
                    coder.ctx,
                    computer,
                    advice_fn,
                    instances,
                    encodings,
                    decoded,
                    audits,
                    census,
                )
            )
    return records


def _verdict(acceptance_log, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})"
    acceptance_log(line)
    return ok


def test_criterion_1_exact_simulation(acceptance_log):
    problems = []
    for n in (1, 2, 3, 4):
        comp, adv = get_subject("full", 1, n, 0)
        insts = list(enumerate_instances(1, n, 4096))
        if comp.T != 2**n - 1:
            problems.append(f"full n={n} T={comp.T}")
        elif max_error(comp, adv, n, insts) != 0:
            problems.append(f"full n={n} inexact")
    for n, k in ((3, 1), (4, 1), (4, 2)):
        comp, adv = get_subject("advised", 1, n, k)
        insts = list(enumerate_instances(1, n, 4096))
        if comp.T != 2**n // 2**k - 1:
            problems.append(f"advised n={n} k={k} T={comp.T}")
        elif max_error(comp, adv, n, insts) != 0:
            problems.append(f"advised n={n} k={k} inexact")
    comp, adv = get_subject("advised", 2, 3, 2)
    insts = list(enumerate_instances(2, 3, 4096))
    if comp.T != 3 or max_error(comp, adv, 3, insts) != 0:
        problems.append("advised M=2 n=3 k=2")
    ok = _verdict(
        acceptance_log,
        1,
        not problems,
        problems[0] if problems else "plain and advised machines exact, "
        "query counts N-1 and N/2^floor(k/M)-1",
    )
    assert ok


def test_criterion_2_roundtrip_sweeps(acceptance_log, sweeps):
    failures = []
    cases = {1: 0, 2: 0}
    for rec in sweeps:
        want = 64 if rec.ctx.n == 3 else 16
        if len(rec.instances) != want:
            failures.append(f"{rec.label}: {len(rec.instances)} instances")
        for inst in rec.instances:
            cases[rec.encodings[inst].case] += 1
            if rec.decoded[inst] != inst:
                failures.append(f"{rec.label}: {inst.literal()}")
    both_cases = cases[1] > 0 and cases[2] > 0
    ok = _verdict(
        acceptance_log,
        2,
        not failures and both_cases,
        failures[0]
        if failures
        else f"{sum(cases.values())} roundtrips across l in {{1,M}}, "
        f"case splits {cases[1]}/{cases[2]}",
    )
    assert ok


def test_criterion_3_pigeonhole_census(acceptance_log, sweeps):
    failures = []
    for rec in sweeps:
        if not rec.census.injective:
            failures.append(f"{rec.label}: collision")
        if rec.census.long_count < 1:
            failures.append(f"{rec.label}: every code shorter than Mn")
    ok = _verdict(
        acceptance_log,
        3,
        not failures,
        failures[0]
        if failures
        else f"all {len(sweeps)} sweeps injective with some code of >= Mn bits",
    )
    assert ok


def test_criterion_4_invariant_audits(acceptance_log, sweeps):
    failures = []
    for rec in sweeps:
        for inst, audit in rec.audits.items():
            if not (audit.rank_ok and audit.mass_ok):
                failures.append(f"{rec.label} {inst.literal()}: profile")
            if not (
                audit.selection_distinct
                and audit.selection_cross_ok
                and audit.selection_floor_ok
                and audit.selection_m_ok
            ):
                failures.append(f"{rec.label} {inst.literal()}: selection")
            if not audit.distance_ok:
                failures.append(f"{rec.label} {inst.literal()}: distance")
    total = sum(len(rec.audits) for rec in sweeps)
    ok = _verdict(
        acceptance_log,
        4,
        not failures,
        failures[0]
        if failures
        else f"{total} audits: rank and mass bounds, selection, "
        "substitution distance within 4C",
    )
    assert ok


def test_criterion_5_single_block_scheme(acceptance_log):
    failures = []
    case2_lengths = set()
    for name, k in (("full", 0), ("advised", 1), ("shortcut", 1)):
        comp, adv = get_subject(name, 1, 4, k)
        coder = single_coder(comp, adv, DEFAULT_PARAMS)
        for inst in enumerate_instances(1, 4, 4096):
            enc = encode_single(coder, inst)
            try:
                back = decode_single(coder, enc)
            except Exception:
                back = None
            if back != inst:
                failures.append(f"{name} k={k} {inst.literal()}")
            if enc.case == 2:
                case2_lengths.add(len(enc))
    if case2_lengths != {3}:
        failures.append(f"case-2 lengths {sorted(case2_lengths)} instead of [3]")
    ok = _verdict(
        acceptance_log,
        5,
        not failures,
        failures[0]
        if failures
        else "48 roundtrips at n=4, k in {0,1}; case-2 codes exactly n-1 bits",
    )
    assert ok


def test_criterion_6_adversary_bounds(acceptance_log):
    failures = []
    for k in (0, 1):
        comp, adv = get_subject("advised", 1, 3, k)
        part = partition_by_advice(comp, adv)
        rep = zeta(comp, part)
        target = 8 // 2**k - 1
        if rep.zeta != 0:
            failures.append(f"advised k={k} zeta={rep.zeta}")
        if rep.implied_from_zeta != target or comp.T != target:
            failures.append(f"advised k={k} bound not met with equality")
        if adversary_bound(8, k, 0) != target:
            failures.append(f"closed form at k={k} not exact")
    for name, k in (
        ("full", 0),
        ("advised", 1),
        ("zero", 0),
        ("probe", 1),
        ("shortcut", 1),
    ):
        comp, adv = get_subject(name, 1, 3, k)
        rep = zeta(comp, partition_by_advice(comp, adv))
        if not rep.structural_ok:
            failures.append(f"{name}: zeta under (b-1)-T")
    # the only approximate figure: the closed form at irrational sqrt
    if abs(float(adversary_bound(8, 0, Fraction(1, 3))) - 0.4003367089252222) > 1e-9:
        failures.append("toleranced closed form drifted")
    ok = _verdict(
        acceptance_log,
        6,
        not failures,
        failures[0]
        if failures
        else "advised zeta 0 with bound equality at k in {0,1}; structural "
        "floor holds for all five subjects",
    )
    assert ok


def _cert_few_good():
    comp, adv = build_single_query(1, 9)
    coder = Coder(comp, adv, 1, 1, CERT_PARAMS)
    ctx = coder.ctx
    rows = []
    for s in (1, 2, 5, 300):
        inst = parse_instance(f"M=1 n=9 steps={s}")
        prof = profile(coder, inst)
        rep = check_inequalities(ctx, prof)
        enc = encode(coder, inst)
        sel = lwss(coder, prof)
        back = decode(coder, enc) if rep.certified else None
        rows.append((inst, prof, rep, enc, sel, back))
    return ctx, rows


def _cert_many_bad():
    comp, adv = build_single_query(512, 4)
    coder = Coder(comp, adv, 4, 1, CERT_PARAMS)
    ctx = coder.ctx
    rows = []
    for steps in (tuple([3] * 512), tuple((i % 16) + 1 for i in range(512))):
        inst = StepInstance(512, 4, steps)
        prof = profile(coder, inst)
        rep = check_inequalities(ctx, prof)
        enc = encode(coder, inst)
        sel = lwss(coder, prof)
        rows.append((inst, prof, rep, enc, sel, None))
    return ctx, rows


def test_criterion_7_length_guarantee(acceptance_log, sweeps):
    failures = []
    for rec in sweeps:
        for inst, audit in rec.audits.items():
            if not audit.length_matches:
                failures.append(f"{rec.label} {inst.literal()}: length off formula")
    for builder in (_cert_few_good, _cert_many_bad):
        ctx, rows = builder()
        for inst, prof, rep, enc, sel, back in rows:
            selected = len(sel.W) if enc.case == 2 else 0
            want = expected_length(ctx, prof.l_prime, enc.case, selected)
            if len(enc) != want:
                failures.append(f"cert {inst.literal()[:24]}: length {len(enc)} != {want}")
            if rep.certified:
                if len(enc) >= ctx.M * ctx.n:
                    failures.append(
                        f"cert {inst.literal()[:24]}: certified but {len(enc)} bits"
                    )
                if back is not None and back != inst:
                    failures.append(f"cert {inst.literal()[:24]}: decode")
    ok = _verdict(
        acceptance_log,
        7,
        not failures,
        failures[0]
        if failures
        else "lengths match the formula on every sweep and certification "
        "run; certified codes stay under Mn bits",
    )
    assert ok
