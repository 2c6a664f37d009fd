"""Differential tests of the coder's and the computer's caches and the
single-pass census.

Each cached weight analysis is checked against a recomputation from a
fresh call of the subject's own prequery function, each profile and
selection against a straight one that compares weights with C and derives
the round count afresh, the oracle over cached terms and answer tables
against the oracle that parses and answers every query word on every run,
each state the oracle and the final build unchecked against the checks
it must meet, each memoized run against the same run without the memo on
a freshly built computer, built-in or loaded from its exported doc, each census folded into a sweep against an
independent fresh encode or a direct recount, each computer's caches
against another computer's, each coder's caches against another coder's
over the same computer, each code built from the context's layout
against the former per-item writer, and the audit's integer rank limit and
integer survivor floors of its Rounds records against the Fraction rules
they replace.
"""

from fractions import Fraction
from itertools import product

import pytest
from machines import build_neighbor_probe, build_single_query
from reference import apply_oracle, final_apply, measure_register
from test_audit_cache import direct_rounds

from ttquery.compression import (
    DEFAULT_PARAMS,
    Coder,
    Encoding,
    EncodingContext,
    ErrorParams,
    LwssResult,
    _encode,
    _field,
    _round_count,
    _select,
    _substituted_steps,
    audit_instance,
    census,
    decode,
    double_bits,
    encode,
    encode_single,
    lwss,
    prefix_weights,
    profile,
    rank_width,
    single_coder,
    verify_pigeonhole,
    weight_analysis,
)
from ttquery.harness import ExperimentConfig, cmd_roundtrip
from ttquery.model import (
    NonadaptiveComputer,
    _reachable_answers,
    computer_from_doc,
    computer_to_doc,
    list_index,
    outcome_to_answer,
    run,
)
from ttquery.ordered_search import StepInstance, bin_n, enumerate_instances, rank_of
from ttquery.subjects import (
    PROBE_LIGHT,
    REGISTRY,
    get_subject,
)

CERT_PARAMS = ErrorParams(Fraction(0), Fraction(1, 2))
# sqrt C = (1 - 2 (1 + c) / 3) / 4 = 64/1025, so C is the probe's light
# weight: that prefix sits exactly at the threshold and must not be heavy
EDGE_PARAMS = ErrorParams(Fraction(1, 3), Fraction(257, 2050))
PARAMS = (DEFAULT_PARAMS, CERT_PARAMS, EDGE_PARAMS)

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
    comp, adv = build()
    inputs = list(product(range(1, M + 1), _advice_strings(k)))
    for cut, params in product(range(1, n + 1), PARAMS):
        if cut > comp.output_width:
            # no coder measures past the output; the table is still checked
            for block, advice in inputs:
                table = _straight_analysis(comp, block, advice, cut, params.C)[0]
                assert prefix_weights(comp, block, advice, cut) == table
            continue
        coder = Coder(comp, adv, cut, 1, params)
        for block, advice in inputs:
            wa = weight_analysis(coder, block, advice)
            table, heavy, own = _straight_analysis(comp, block, advice, cut, params.C)
            assert dict(wa.table) == table
            assert wa.heavy == heavy
            assert dict(wa.ranks) == {a: i for i, a in enumerate(heavy)}
            assert wa.own_mass == own and wa.mass_ok == (own <= comp.T)
            assert weight_analysis(coder, block, advice) is wa


def test_edge_params_put_a_probe_prefix_exactly_at_the_threshold():
    assert EDGE_PARAMS.C == PROBE_LIGHT**2
    comp, adv = get_subject("probe", 2, 2, 2)
    wa = weight_analysis(Coder(comp, adv, 1, 1, EDGE_PARAMS), 1, "01")
    assert wa.table[(1, "1")] == EDGE_PARAMS.C
    assert wa.heavy == ("0",) and dict(wa.ranks) == {"0": 0}


def test_cached_analysis_and_state_are_read_only():
    comp, adv = get_subject("probe", 2, 2, 2)
    wa = weight_analysis(Coder(comp, adv, 1, 1), 1, "01")
    with pytest.raises(TypeError):
        wa.table[(1, "0")] = Fraction(0)
    with pytest.raises(TypeError):
        wa.ranks["1"] = 1
    with pytest.raises(TypeError):
        comp.prequery_state(1, "01")[((), 0)] = Fraction(1)


def _straight_profile(comp, advice, names, p, C):
    """Each block classified by w > C, with its rank from heavy.index."""
    blocks = []
    for i in range(1, comp.M + 1):
        table, heavy, _own = _straight_analysis(comp, i, advice, p, C)
        pre = names[i][: comp.n - p]
        w = table.get((i, pre), Fraction(0))
        good = w > C
        blocks.append((i, pre, good, heavy.index(pre) if good else None))
    return tuple(blocks)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_profile_matches_straight_classification(label, build, M, n, k, p):
    comp, adv = build()
    # every cut a coder can measure: none measures past the output width
    for params, cut in product(PARAMS, range(1, min(n, comp.output_width) + 1)):
        coder = Coder(comp, adv, cut, 1, params)
        for inst in enumerate_instances(M, n):
            advice = adv(inst)
            names = {i: inst.step_bits(i) for i in range(1, M + 1)}
            prof = profile(coder, inst)
            want = _straight_profile(comp, advice, names, cut, params.C)
            assert prof.advice == advice and prof.blocks == want, (params, inst, cut)
            assert prof.good_indices == tuple(b[0] for b in want if b[2])
            assert prof.l_prime == len(prof.good_indices)


def _straight_select(ctx, comp, advice, bad_prefixes):
    """The selection with its round count and threshold derived afresh and
    every weight read from a straight analysis."""
    pool = tuple(sorted(bad_prefixes))
    m = _round_count(ctx.t, len(pool))
    threshold = ctx.C / m if m else None
    survivors, picked, sizes, tables = list(pool), [], [len(pool)], {}
    for _ in range(m):
        pivot = next(j for j in survivors if j not in picked)
        picked.append(pivot)
        tables[pivot] = _straight_analysis(comp, pivot, advice, ctx.p, ctx.C)[0]
        survivors = [
            j for j in survivors if tables[pivot].get((j, bad_prefixes[j]), Fraction(0)) < threshold
        ]
        sizes.append(len(survivors))
    crosses = tuple(
        (a, b, tables[a].get((b, bad_prefixes[b]), Fraction(0)))
        for a_pos, a in enumerate(picked)
        for b in picked[a_pos + 1 :]
    )
    return LwssResult(tuple(picked), m, threshold, tuple(sizes), crosses)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_select_matches_straight_selection(label, build, M, n, k, p):
    # every pool of blocks under every instance's advice, so one context
    # sees every pool size; a second and a third context see the same
    # sizes at other thresholds
    comp, adv = build()
    pools = [
        [i for i in range(1, M + 1) if mask >> (i - 1) & 1] for mask in range(2**M)
    ]
    for params in PARAMS:
        coder = Coder(comp, adv, p, M, params)
        ctx = coder.ctx
        for inst in enumerate_instances(M, n):
            advice = adv(inst)
            for pool in pools:
                bad = {j: inst.step_bits(j)[: n - p] for j in pool}
                want = _straight_select(ctx, comp, advice, bad)
                assert _select(coder, advice, bad) == want, (params, inst, pool)


def test_select_matches_straight_selection_over_several_rounds():
    # the round count reaches 2 only once the pool holds 2t + 2 blocks
    # (t = T / C = 16 here), so 64 blocks; pool sizes rise and then fall,
    # and each size must get its own round count and threshold
    M = 64
    comp, adv = build_neighbor_probe(M, 1)
    coder = Coder(comp, adv, 1, M, CERT_PARAMS)
    ctx = coder.ctx
    advice = "01" * (M // 2)
    rounds = set()
    for size in [*range(M + 1), *range(M, -1, -1)]:
        bad = {j: "" for j in range(M - size + 1, M + 1)}
        sel = _select(coder, advice, bad)
        assert sel == _straight_select(ctx, comp, advice, bad), size
        rounds.add(sel.m)
    assert rounds == {0, 1, 2}


def _threshold_answers(ranked_words, steps):
    """The answer rule word by word: the reference the answer tables replace."""
    bits = ["1" if rank >= steps[block - 1] else "0" for block, rank in ranked_words]
    return int("".join(bits), 2) if bits else 0


def _straight_oracle(comp, pre, steps):
    """The oracle without the term cache: every word parsed on every run,
    zero amplitudes dropped at the end."""
    amps = {}
    for (words, ws), amp in pre.items():
        ranked = [(w.block, rank_of(w.location)) for w in words]
        key = (list_index(words, comp.M, comp.n), _threshold_answers(ranked, steps), ws)
        amps[key] = amps.get(key, Fraction(0)) + amp
    return {key: amp for key, amp in amps.items() if amp != 0}


def _every_threshold(M, n):
    """Every threshold vector in 1..N+1: each class of every block, N+1 included."""
    return list(product(range(1, 2**n + 2), repeat=M))


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
    swept = _swept_thresholds(M, n)
    assert len(swept) > 2**(M * n)  # substituted vectors beyond the steps
    thresholds = sorted(set(swept) | set(_every_threshold(M, n)))
    for block, advice in sorted(inputs):
        pre = comp.prequery(block, advice)
        for steps in thresholds:
            want = _straight_oracle(comp, pre, steps)
            assert apply_oracle(comp, block, advice, steps) == want, (block, advice, steps)


def _with_zero_terms(comp, adv):
    """The computer with one zero-amplitude term added to every prequery
    mapping, on a free cell of one of its lists: validation must drop it."""

    def prequery(block, advice, inner=comp.prequery):
        amps = dict(inner(block, advice))
        words = next(iter(amps))[0]
        free = [ws for ws in range(comp.workspace_dim) if (words, ws) not in amps]
        amps[(words, free[0])] = Fraction(0)
        return amps

    copy = NonadaptiveComputer(
        comp.M, comp.n, comp.T, comp.advice_len, comp.output_width, comp.scratch_dim,
        prequery, comp.final,
    )
    return copy, adv


ZERO_TERMS = (
    "probe_zero_terms",
    lambda: _with_zero_terms(*get_subject("probe", 2, 2, 2)),
    2, 2, 2, 1,
)


@pytest.mark.parametrize(
    "label, build, M, n, k, p", (*SUBJECTS, ZERO_TERMS), ids=[*IDS, ZERO_TERMS[0]]
)
def test_trusted_states_match_checked_construction(label, build, M, n, k, p):
    # apply_oracle and final_apply build their dicts without checking
    # them; each must still hold int-triple keys with cells in the
    # workspace and nonzero Fraction amplitudes, and equal the straight
    # oracle's state, before and after the fiber permutation
    comp, adv = build()
    fn, cells = comp.final.fn, range(comp.workspace_dim)
    inputs = {(b, adv(i)) for i in enumerate_instances(M, n) for b in range(1, M + 1)}
    swept = _swept_thresholds(M, n)
    for block, advice in sorted(inputs):
        pre = comp.prequery(block, advice)
        for steps in swept:
            want = _straight_oracle(comp, pre, steps)
            state = apply_oracle(comp, block, advice, steps)
            final = final_apply(comp.final, state, comp.workspace_dim)
            for got in (state, final):
                assert type(got) is dict
                for key, amp in got.items():
                    assert type(key) is tuple and len(key) == 3
                    assert all(type(v) is int for v in key) and key[2] in cells
                    assert type(amp) is Fraction and amp != 0
            assert state == want, (block, advice, steps)
            moved = {(lidx, aidx, fn(lidx, aidx, ws)): amp for (lidx, aidx, ws), amp in want.items()}
            assert final == moved, (block, advice, steps)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_reachable_answers_match_every_threshold(label, build, M, n, k, p):
    comp, _ = build()
    for block, advice in product(range(1, M + 1), _advice_strings(k)):
        tables = {lidx: table for lidx, table, *_cell in comp._cached_input(block, advice).terms}
        for words, _ws in comp.prequery(block, advice):
            ranked = [(w.block, rank_of(w.location)) for w in words]
            brute = {_threshold_answers(ranked, s) for s in _every_threshold(M, n)}
            assert _reachable_answers(tables[list_index(words, M, n)]) == brute


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_cached_terms_are_immutable_int_tuples(label, build, M, n, k, p):
    comp, _ = build()
    for block, advice in product(range(1, M + 1), _advice_strings(k)):
        pre = comp.prequery_state(block, advice)
        cached = comp._states[(block, advice)]
        assert cached.amps is pre
        assert type(cached.terms) is tuple and len(cached.terms) == len(pre)
        lists = {list_index(words, M, n): words for words, _ws in pre}
        # one term per entry of the mapping, in the mapping's order
        for term, (key, amp) in zip(cached.terms, pre.items()):
            assert type(term) is tuple
            lidx, table, ws, square = term
            words = lists[lidx]
            assert (words, ws) == key
            # the square that run adds and the norm check sums
            assert type(square) is Fraction and square == amp * amp
            # one (block - 1, ranks, shares) triple per queried block, in
            # block order, over the list's sorted distinct ranks there
            assert type(table) is tuple
            assert [j for j, _r, _s in table] == sorted({w.block - 1 for w in words})
            for j, ranks, shares in table:
                assert type(ranks) is tuple and type(shares) is tuple
                assert all(type(r) is int for r in ranks) and all(type(v) is int for v in shares)
                assert ranks == tuple(sorted({rank_of(w.location) for w in words if w.block == j + 1}))
                assert len(shares) == len(ranks) + 1 and shares[-1] == 0


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_folded_census_matches_fresh_pigeonhole(label, build, M, n, k, p):
    for l in sorted({1, M}):
        comp, adv = build()
        coder = Coder(comp, adv, p, l)
        pairs = [(i, encode(coder, i)) for i in enumerate_instances(M, n)]
        fresh, fresh_adv = build()
        assert census(pairs, M * n) == verify_pigeonhole(Coder(fresh, fresh_adv, p, l))


@pytest.mark.parametrize(
    "subject, n, k",
    [("full", 3, 0), ("advised", 3, 1), ("zero", 3, 0), ("shortcut", 3, 1), ("single_query", 3, 0)],
)
def test_single_scheme_census_matches_recount(subject, n, k):
    if subject == "single_query":
        comp, adv = build_single_query(1, n)
    else:
        comp, adv = get_subject(subject, 1, n, k)
    coder = single_coder(comp, adv, DEFAULT_PARAMS)
    pairs = [(i, encode_single(coder, i)) for i in enumerate_instances(1, n)]
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
    rep = verify_pigeonhole(Coder(comp, adv, p, l))
    assert summary["injective"] == rep.injective
    assert (summary["case1"], summary["case2"]) == (rep.case1_count, rep.case2_count)
    assert (summary["min_length"], summary["max_length"]) == (rep.min_length, rep.max_length)
    assert summary["codes_at_least_Mn"] == rep.long_count


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_audit_reuses_what_a_fresh_profile_and_selection_give(label, build, M, n, k, p):
    comp, adv = build()
    coder = Coder(comp, adv, p, M)
    for inst in enumerate_instances(M, n):
        audit = audit_instance(coder, inst)
        fresh = Coder(*build(), p, M)
        prof = profile(fresh, inst)
        assert audit.case == (1 if M <= prof.l_prime else 2)
        if audit.case == 2:
            assert audit.selection == lwss(fresh, prof)


def _advice_len(name, M):
    return {"advised": 1, "probe": M, "shortcut": 1}.get(name, 0)


# every registry subject at every M <= 4, n <= 3 it can be built at
MEMO_CASES = [
    (name, M, n)
    for name in REGISTRY
    for M, n in product(range(1, 5), range(1, 4))
    if name != "shortcut" or (M == 1 and n >= 2)
]


class _StraightRunner:
    """`run` without the memo or the answer tables, on its own computer:
    each word answered by the reference rule, then the final transform and
    the measurement once per distinct post-oracle state."""

    def __init__(self, comp):
        self.comp = comp
        self.parsed = {}
        self.finals = {}

    def answers(self, block, advice, steps):
        key = (block, advice)
        if key not in self.parsed:
            M, n = self.comp.M, self.comp.n
            self.parsed[key] = [
                (list_index(words, M, n), [(w.block, rank_of(w.location)) for w in words], ws, amp)
                for (words, ws), amp in self.comp.prequery(block, advice).items()
            ]
        return tuple(
            (lidx, _threshold_answers(ranked, steps), ws, amp)
            for lidx, ranked, ws, amp in self.parsed[key]
        )

    def run(self, block, advice, answers, width):
        key = (block, advice, answers, width)
        if key not in self.finals:
            amps = {(lidx, aidx, ws): amp for lidx, aidx, ws, amp in answers}
            dim = self.comp.workspace_dim
            final = final_apply(self.comp.final, amps, dim)
            self.finals[key] = {
                outcome_to_answer(outcome, width): prob
                for outcome, prob in measure_register(final, dim, width).items()
            }
        return self.finals[key]


def _memo_sweep(M, n, k, adv):
    """(block, advice, steps) of the runs to check: at M * n <= 8 every
    threshold vector in 1..N+1, so every class of every block, under every
    advice string; beyond that, the simulate sweep, every instance under
    its own advice."""
    blocks = range(1, M + 1)
    if M * n <= 8:
        advices = _advice_strings(k)
        for steps in _every_threshold(M, n):
            for block, advice in product(blocks, advices):
                yield block, advice, steps
        return
    for instance in enumerate_instances(M, n):
        advice = adv(instance)
        for block in blocks:
            yield block, advice, instance.steps


def _loaded(comp, k):
    """The computer loaded from its exported doc over every input: its
    final is a fiber table, and every fiber the table omits keeps the
    identity."""
    inputs = list(product(range(1, comp.M + 1), _advice_strings(k)))
    return computer_from_doc(computer_to_doc(comp, inputs))


@pytest.mark.parametrize(
    "name, M, n, from_doc",
    [
        pytest.param(*case, from_doc, id=f"{case[0]}-M{case[1]}-n{case[2]}" + "-doc" * from_doc)
        for from_doc in (False, True)
        for case in MEMO_CASES
    ],
)
def test_memoized_runs_match_unmemoized_runs(name, M, n, from_doc):
    k = _advice_len(name, M)
    comp, adv = get_subject(name, M, n, k)
    fresh, _ = get_subject(name, M, n, k)
    if from_doc:
        comp, fresh = _loaded(comp, k), _loaded(fresh, k)
    straight = _StraightRunner(fresh)
    for block, advice, steps in _memo_sweep(M, n, k, adv):
        answers = straight.answers(block, advice, steps)
        for width in range(1, comp.output_width + 1):
            want = straight.run(block, advice, answers, width)
            assert run(comp, block, advice, steps, width) == want, (block, advice, steps, width)
    assert comp.runs and fresh.runs == {}


def test_mutating_a_returned_distribution_leaves_the_memo_alone():
    comp, _ = get_subject("full", 1, 2, 0)
    first = run(comp, 1, "", (3,))
    assert first == {"10": Fraction(1)}
    first["10"] = Fraction(0)
    first["01"] = Fraction(1)
    assert run(comp, 1, "", (3,)) == {"10": Fraction(1)}
    assert run(comp, 1, "", (3,)) is not run(comp, 1, "", (3,))
    (cached,) = comp.runs.values()
    with pytest.raises(TypeError):
        cached["10"] = Fraction(0)


def test_width_is_part_of_the_key():
    comp, _ = get_subject("full", 1, 3, 0)
    assert run(comp, 1, "", (6,), width=1) == {"1": Fraction(1)}
    assert run(comp, 1, "", (6,), width=3) == {"101": Fraction(1)}
    assert run(comp, 1, "", (6,)) == {"101": Fraction(1)}
    assert len(comp.runs) == 2


def test_computers_never_share_cached_entries():
    calls = []
    first, first_adv = get_subject("probe", 2, 2, 2)
    second, second_adv = get_subject("probe", 2, 2, 2)
    raw = first.prequery

    def counted(block, advice):
        calls.append((block, advice))
        return raw(block, advice)

    first.prequery = counted
    a = weight_analysis(Coder(first, first_adv, 1, 1), 1, "01")
    run(first, 1, "01", (1, 1))
    second_coder = Coder(second, second_adv, 1, 1)
    assert second_coder.analyses == {}
    assert second._states == {}
    assert second.runs == {}
    b = weight_analysis(second_coder, 1, "01")
    assert a == b and a is not b
    assert first.prequery_state(1, "01") is not second.prequery_state(1, "01")
    first_terms = first._states[(1, "01")].terms
    second_terms = second._states[(1, "01")].terms
    assert first_terms == second_terms and first_terms is not second_terms
    assert all(x is not y for x, y in zip(first_terms, second_terms))
    # a coder at another threshold and a state read of the same input reuse
    # the cached state
    weight_analysis(Coder(first, first_adv, 1, 1, CERT_PARAMS), 1, "01")
    first.prequery_state(1, "01")
    assert calls == [(1, "01")]
    assert run(second, 1, "01", (1, 1)) == run(first, 1, "01", (1, 1))
    assert first.runs == second.runs
    assert all(first.runs[key] is not second.runs[key] for key in first.runs)


def test_coders_over_one_computer_share_its_caches_but_not_their_analyses():
    comp, adv = get_subject("probe", 2, 2, 2)
    one, two = Coder(comp, adv, 1, 2), Coder(comp, adv, 1, 2)
    # a case-2 code: decoding runs the machine on the selected block
    inst = StepInstance(2, 2, (1, 4))
    enc = encode(one, inst)
    assert enc.case == 2 and decode(one, enc) == inst
    states, runs = dict(comp._states), dict(comp.runs)
    assert states and runs and one.analyses and two.analyses == {}
    assert decode(two, encode(two, inst)) == inst
    # the second coder found every state and run in the computer's caches
    assert comp._states.keys() == states.keys() and comp.runs.keys() == runs.keys()
    assert all(comp._states[key] is states[key] for key in states)
    assert all(comp.runs[key] is runs[key] for key in runs)
    # and built analyses of its own, equal but not shared
    assert one.analyses.keys() == two.analyses.keys()
    for key, wa in one.analyses.items():
        assert two.analyses[key] == wa and two.analyses[key] is not wa


# ---------------------------------------------------------------------------
# Code layouts and the integer audit checks, against the per-item writer and
# the Fraction rules they replace


class _ItemWriter:
    """The encoder's former per-item writer, kept as the reference."""

    def __init__(self):
        self.parts, self.items, self.pos = [], [], 0

    def put(self, name, bits):
        self.parts.append(bits)
        self.items.append((name, self.pos, len(bits)))
        self.pos += len(bits)

    def build(self, case):
        return Encoding(case, "".join(self.parts), tuple(self.items))


def _written_encode(coder, inst):
    """The former encoder: names from bin_n, every item put one at a time."""
    ctx, comp = coder.ctx, coder.computer
    f = coder.advice_fn(inst)
    names = {i: bin_n(ctx.n, inst.steps[i - 1]) for i in range(1, ctx.M + 1)}
    prof = profile(coder, inst)
    good = [bp.block for bp in prof.blocks if bp.good]
    cut = ctx.n - ctx.p
    w = _ItemWriter()
    w.put("advice", f)
    w.put("good-indices", double_bits("".join(_field(i - 1, ctx.index_width) for i in good)))
    w.put("separator", "01")
    if ctx.l <= len(good):
        for bp in prof.blocks:
            if bp.good:
                w.put(f"rank-{bp.block}", _field(bp.rank, ctx.width_k))
                w.put(f"suffix-{bp.block}", names[bp.block][cut:])
            else:
                w.put(f"name-{bp.block}", names[bp.block])
        return w.build(1), prof, None
    for i in good:
        w.put(f"name-{i}", names[i])
    bad = [bp.block for bp in prof.blocks if not bp.good]
    for j in bad:
        w.put(f"prefix-{j}", names[j][:cut])
    sel = _straight_select(ctx, comp, f, {j: names[j][:cut] for j in bad})
    for j in bad:
        if j not in sel.W:
            w.put(f"suffix-{j}", names[j][cut:])
    return w.build(2), prof, sel


def _every_coder(comp, adv):
    for params, l, p in product(
        PARAMS, range(1, comp.M + 1), range(1, min(comp.n, comp.output_width) + 1)
    ):
        yield Coder(comp, adv, p, l, params)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_layout_encoder_matches_item_writer(label, build, M, n, k, p):
    comp, adv = build()
    cases = set()
    for coder in _every_coder(comp, adv):
        ctx = coder.ctx
        for inst in enumerate_instances(M, n):
            enc, prof, sel = _encode(coder, inst)
            want_enc, want_prof, want_sel = _written_encode(coder, inst)
            assert (enc.case, enc.bits, enc.items) == (
                want_enc.case, want_enc.bits, want_enc.items
            ), (ctx, inst)
            assert prof == want_prof and prof.good_indices == want_prof.good_indices
            assert sel == want_sel and prof.advice == adv(inst)
            chosen = sel.W if sel else ()
            assert ctx.layout(enc.case, prof.good_indices, chosen)[0] is enc.items
            cases.add(enc.case)
    # good blocks abound for full and advised and are scarce where the
    # queries miss the own block, so the sweep reaches both layouts
    assert cases == {"full": {1}, "advised": {1}, "probe": {1, 2}, "shortcut": {1, 2}}.get(
        label, {2}
    )


@pytest.mark.parametrize(
    "build, n, k",
    [
        (lambda: get_subject("full", 1, 3, 0), 3, 0),
        (lambda: get_subject("advised", 1, 3, 1), 3, 1),
        (lambda: get_subject("shortcut", 1, 3, 1), 3, 1),
        (lambda: build_single_query(1, 3), 3, 0),
    ],
    ids=["full", "advised", "shortcut", "single_query"],
)
def test_single_encoder_matches_item_writer(build, n, k):
    comp, adv = build()
    p, cut = k + 1, n - k - 1
    for params in PARAMS:
        coder = single_coder(comp, adv, params)
        assert coder.ctx.p == p
        for inst in enumerate_instances(1, n):
            f, name = adv(inst), bin_n(n, inst.steps[0])
            rank = weight_analysis(coder, 1, f).ranks.get(name[:cut])
            w = _ItemWriter()
            w.put("advice", f)
            if rank is None:
                w.put("prefix", name[:cut])
            else:
                w.put("suffix", name[cut:])
                w.put("rank", _field(rank, rank_width(comp.T, params.C)))
            want = w.build(2 if rank is None else 1)
            assert encode_single(coder, inst) == want, (params, inst)


def test_rank_limit_matches_the_fraction_bounds():
    # t = T / C is a whole number under DEFAULT_PARAMS (C = 1/256) and
    # CERT_PARAMS (C = 1/16), and not under EDGE_PARAMS
    whole = set()
    for params, T in product(PARAMS, range(0, 40)):
        ctx = EncodingContext(M=1, n=1, p=1, k=0, T=T, l=1, params=params)
        assert ctx.distance_bound == 4 * params.C
        whole.add(ctx.t.denominator == 1)
        edges = {ctx.rank_limit, 2**ctx.width_k, int(ctx.t)}
        for rank in {r + d for r in edges for d in range(-2, 3) if r + d >= 0}:
            want = rank < ctx.t and rank < 2**ctx.width_k
            assert (rank < ctx.rank_limit) == want, (params, T, rank)
    assert whole == {True, False}


def _direct_floor(ctx, bad_count, m, sizes):
    return not any(size < bad_count - ctx.t * m * i for i, size in enumerate(sizes))


def _floor_verdict(rounds, sizes):
    """The audit's survivor-floor check against a Rounds record."""
    return len(sizes) == len(rounds.floors) and all(
        size >= floor for size, floor in zip(sizes, rounds.floors)
    )


@pytest.mark.parametrize("params", PARAMS, ids=["default", "cert", "edge"])
def test_survivor_floor_verdict_matches_direct_evaluation(params):
    # under CERT_PARAMS and T = 1, t = 16: a round may shed 16 m survivors.
    # Every pool size of M = 64 is tried, each record asked twice, and the
    # integer floors are checked against the Fraction rule on sizes one
    # either side of each bound
    rounds_seen = set()
    for T in (1, 2):
        ctx = EncodingContext(M=64, n=1, p=1, k=0, T=T, l=1, params=params)
        for pool in range(64):
            for _ in range(2):
                assert ctx.rounds(pool) == direct_rounds(ctx, pool), (T, pool)
            rounds = ctx.rounds(pool)
            m = rounds.m
            rounds_seen.add(m)
            for i, d in product(range(m + 1), (-1, 0, 1)):
                sizes = list(rounds.floors)
                sizes[i] = max(0, sizes[i] + d)
                want = _direct_floor(ctx, pool, m, sizes)
                assert _floor_verdict(rounds, tuple(sizes)) == want, (T, pool, sizes)
            assert not _floor_verdict(rounds, rounds.floors[:-1])
    # t >= 256 under the default and edge thresholds keeps m at most 1
    assert rounds_seen == ({0, 1, 2} if params is CERT_PARAMS else {0, 1})


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_audit_integer_checks_match_fraction_rules(label, build, M, n, k, p):
    comp, adv = build()
    for coder in _every_coder(comp, adv):
        ctx = coder.ctx
        for inst in enumerate_instances(M, n):
            audit = audit_instance(coder, inst)
            prof = profile(coder, inst)
            assert audit.rank_ok == all(
                bp.rank < ctx.t and bp.rank < 2**ctx.width_k for bp in prof.blocks if bp.good
            )
            assert audit.distance_ok == all(d <= 4 * ctx.C for d in audit.distances)
            if audit.selection is not None:
                sel = audit.selection
                want = _direct_floor(ctx, M - prof.l_prime, sel.m, sel.survivor_sizes)
                assert audit.selection_floor_ok == want
                assert want == _floor_verdict(ctx.rounds(M - prof.l_prime), sel.survivor_sizes)
