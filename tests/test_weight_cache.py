"""Differential tests of the per-computer caches and the single-pass census.

Each cached weight analysis is checked against a recomputation from a
fresh call of the subject's own prequery function, the oracle over cached
terms against the oracle that parses every query word on every run, each
census folded into a sweep against an independent fresh encode or a direct
recount, and each computer's caches against another computer's.
"""

from fractions import Fraction
from itertools import product

import pytest

from ttquery.compression import (
    DEFAULT_PARAMS,
    EncodingContext,
    ErrorParams,
    _substituted_steps,
    audit_instance,
    census,
    encode,
    encode_single,
    lwss,
    profile,
    verify_pigeonhole,
    weight_analysis,
)
from ttquery.harness import ExperimentConfig, cmd_roundtrip
from ttquery.model import QueryWord, apply_oracle, list_index
from ttquery.ordered_search import bin_n, enumerate_instances, rank_of
from ttquery.statevec import SparseState
from ttquery.subjects import build_neighbor_probe, build_single_query, get_subject

CERT_PARAMS = ErrorParams(Fraction(0), Fraction(1, 2))

# (label, builder, M, n, k, p): small sizes of every subject, p within the
# subject's output width.
SUBJECTS = (
    ("full", lambda: get_subject("full", 2, 2, 0), 2, 2, 0, 2),
    ("advised", lambda: get_subject("advised", 2, 2, 2), 2, 2, 2, 1),
    ("zero", lambda: get_subject("zero", 2, 2, 0), 2, 2, 0, 1),
    ("probe", lambda: get_subject("probe", 2, 2, 2), 2, 2, 2, 1),
    ("shortcut", lambda: get_subject("shortcut", 1, 3, 1), 1, 3, 1, 2),
    ("neighbor_probe", lambda: build_neighbor_probe(4, 2), 4, 2, 4, 1),
    ("single_query", lambda: build_single_query(2, 2), 2, 2, 0, 2),
)
IDS = [s[0] for s in SUBJECTS]


def _advice_strings(k):
    return ["".join(bits) for bits in product("01", repeat=k)]


def _straight_analysis(comp, block, advice, p, threshold):
    """Weight table, heavy list and own mass from the raw prequery function."""
    word_weight = {}
    for (words, _ws), amp in comp.prequery(block, advice).items():
        for w in set(words):
            word_weight[w] = word_weight.get(w, Fraction(0)) + amp * amp
    table = {}
    for w, v in word_weight.items():
        key = (w.block, w.location[: comp.n - p])
        table[key] = table.get(key, Fraction(0)) + v
    own = {a: v for (j, a), v in table.items() if j == block}
    heavy = tuple(sorted(a for a, v in own.items() if v > threshold))
    return table, heavy, sum(own.values(), Fraction(0))


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_cached_analysis_matches_recomputation(label, build, M, n, k, p):
    comp, _ = build()
    for block, advice, cut, params in product(
        range(1, M + 1), _advice_strings(k), range(1, n + 1), (DEFAULT_PARAMS, CERT_PARAMS)
    ):
        wa = weight_analysis(comp, block, advice, cut, params.C)
        table, heavy, own = _straight_analysis(comp, block, advice, cut, params.C)
        assert dict(wa.table) == table
        assert wa.heavy == heavy
        assert wa.own_mass == own
        assert weight_analysis(comp, block, advice, cut, params.C) is wa


def test_cached_analysis_and_state_are_read_only():
    comp, _ = get_subject("probe", 2, 2, 2)
    wa = weight_analysis(comp, 1, "01", 1, DEFAULT_PARAMS.C)
    with pytest.raises(TypeError):
        wa.table[(1, "0")] = Fraction(0)
    with pytest.raises(TypeError):
        comp.prequery_state(1, "01").amps[((), 0)] = Fraction(1)


def _straight_oracle(comp, pre, steps):
    """The oracle without the term cache: every word parsed on every run."""
    amps = {}
    for (words, ws), amp in pre.items():
        answers = 0
        for w in words:
            answers = answers * 2 + (rank_of(w.location) >= steps[w.block - 1])
        key = (list_index(words, comp.M, comp.n), answers, ws)
        amps[key] = amps.get(key, Fraction(0)) + amp
    return SparseState(comp.workspace_dim, amps)


def _swept_thresholds(M, n):
    """Every instance's steps and every threshold vector the coder substitutes."""
    thresholds = set()
    for instance in enumerate_instances(M, n):
        thresholds.add(instance.steps)
        names = {i: instance.step_bits(i) for i in range(1, M + 1)}
        for p in range(1, n + 1):
            prefix_of = {i: names[i][: n - p] for i in names}
            for mask in range(1, 2**M):
                pending = {i for i in names if mask >> (i - 1) & 1}
                thresholds.add(_substituted_steps(M, p, names, prefix_of, pending))
    return sorted(thresholds)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_cached_oracle_matches_straight_oracle(label, build, M, n, k, p):
    comp, adv = build()
    inputs = {(b, adv(i)) for i in enumerate_instances(M, n) for b in range(1, M + 1)}
    thresholds = _swept_thresholds(M, n)
    assert len(thresholds) > 2**(M * n)  # substituted vectors beyond the steps
    for block, advice in sorted(inputs):
        pre = comp.prequery(block, advice)
        for steps in thresholds:
            want = _straight_oracle(comp, pre, steps)
            assert apply_oracle(comp, block, advice, steps) == want, (block, advice, steps)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_cached_terms_are_immutable_int_tuples(label, build, M, n, k, p):
    comp, _ = build()
    for block, advice in product(range(1, M + 1), _advice_strings(k)):
        pre = comp.prequery_state(block, advice)
        cached = comp._states[(block, advice)]
        assert cached.state is pre
        assert type(cached.terms) is tuple and len(cached.terms) == len(pre.amps)
        for term in cached.terms:
            assert type(term) is tuple
            lidx, ranked_words, ws, amp = term
            assert type(ranked_words) is tuple
            assert all(type(b) is int and type(r) is int for b, r in ranked_words)
            words = tuple(QueryWord(b, bin_n(n, r)) for b, r in ranked_words)
            assert lidx == list_index(words, M, n)
            assert pre.amps[(words, ws)] == amp


def _multi_ctx(comp, M, n, k, p, l):
    return EncodingContext(M=M, n=n, p=p, k=k, T=comp.T, l=l)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_folded_census_matches_fresh_pigeonhole(label, build, M, n, k, p):
    for l in sorted({1, M}):
        comp, adv = build()
        ctx = _multi_ctx(comp, M, n, k, p, l)
        pairs = [(i, encode(ctx, comp, adv, i)) for i in enumerate_instances(M, n)]
        fresh, fresh_adv = build()
        assert census(pairs, M * n) == verify_pigeonhole(ctx, fresh, fresh_adv, M, n)


@pytest.mark.parametrize(
    "subject, n, k",
    [("full", 3, 0), ("advised", 3, 1), ("zero", 3, 0), ("shortcut", 3, 1), ("single_query", 3, 0)],
)
def test_single_scheme_census_matches_recount(subject, n, k):
    if subject == "single_query":
        comp, adv = build_single_query(1, n)
    else:
        comp, adv = get_subject(subject, 1, n, k)
    pairs = [
        (i, encode_single(n, k, DEFAULT_PARAMS, comp, adv, i))
        for i in enumerate_instances(1, n)
    ]
    rep = census(pairs, n)
    codes = [(enc.case, enc.bits) for _, enc in pairs]
    assert rep.total == len(pairs)
    assert rep.injective == (len(set(codes)) == len(codes))
    assert rep.max_length == max(len(enc) for _, enc in pairs)
    assert rep.long_count == sum(1 for _, enc in pairs if len(enc) >= n)


@pytest.mark.parametrize(
    "subject, M, n, k, p, l",
    [("full", 2, 2, 0, 1, 1), ("zero", 2, 2, 0, 1, 2), ("probe", 4, 2, 4, 1, 4)],
)
def test_roundtrip_summary_matches_fresh_pigeonhole(subject, M, n, k, p, l):
    cfg = ExperimentConfig(M=M, n=n, p=p, k=k, l=l, subject=subject)
    summary = cmd_roundtrip(cfg).summary
    comp, adv = get_subject(subject, M, n, k)
    rep = verify_pigeonhole(_multi_ctx(comp, M, n, k, p, l), comp, adv, M, n)
    assert summary["injective"] == rep.injective
    assert (summary["case1"], summary["case2"]) == (rep.case1_count, rep.case2_count)
    assert (summary["min_length"], summary["max_length"]) == (rep.min_length, rep.max_length)
    assert summary["codes_at_least_Mn"] == rep.long_count


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_audit_reuses_what_a_fresh_profile_and_selection_give(label, build, M, n, k, p):
    comp, adv = build()
    ctx = _multi_ctx(comp, M, n, k, p, M)
    for inst in enumerate_instances(M, n):
        audit = audit_instance(ctx, comp, adv, inst)
        fresh, fresh_adv = build()
        prof = profile(fresh, fresh_adv, inst, p)
        assert audit.case == (1 if ctx.l <= prof.l_prime else 2)
        if audit.case == 2:
            assert audit.selection == lwss(fresh, fresh_adv, inst, prof, ctx)


def test_computers_never_share_cached_entries():
    calls = []
    first, _ = get_subject("probe", 2, 2, 2)
    second, _ = get_subject("probe", 2, 2, 2)
    raw = first.prequery

    def counted(block, advice):
        calls.append((block, advice))
        return raw(block, advice)

    first.prequery = counted
    a = weight_analysis(first, 1, "01", 1, DEFAULT_PARAMS.C)
    assert second.weight_analyses == {}
    assert second._states == {}
    b = weight_analysis(second, 1, "01", 1, DEFAULT_PARAMS.C)
    assert a == b and a is not b
    assert first.prequery_state(1, "01") is not second.prequery_state(1, "01")
    first_terms = first._states[(1, "01")].terms
    second_terms = second._states[(1, "01")].terms
    assert first_terms == second_terms and first_terms is not second_terms
    assert all(x is not y for x, y in zip(first_terms, second_terms))
    # another threshold and a state read of the same input reuse the cached
    # state, and the new threshold keeps the cached table
    assert weight_analysis(first, 1, "01", 1, CERT_PARAMS.C).table is a.table
    first.prequery_state(1, "01")
    assert calls == [(1, "01")]
