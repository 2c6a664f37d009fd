"""Differential tests of the coder's and the computer's caches, the
single-pass census and the code layouts.

Weight analyses, profiles, selections and Rounds records, the cached
oracle terms with their answer tables, and each memoized run, built in or
loaded from its exported doc, are checked against the straight paths of
reference.py, and each state the reference oracle and final build
unchecked against the checks it must meet. Each census folded into a sweep is checked against a fresh encode or a
direct recount, each computer's caches against another computer's, each
coder's against another coder's over the same computer, each code built
from the context's layout against the former per-item writer, and the
audit's integer rank limit against the Fraction bounds.
"""

from fractions import Fraction
from itertools import product

import pytest
from machines import (
    CERT_PARAMS,
    EDGE_PARAMS,
    PARAMS,
    SUBJECTS,
    build_neighbor_probe,
    build_single_query,
    coders,
    every_threshold,
    grid_params,
    inputs,
    subject,
)
from reference import (
    apply_oracle,
    direct_rounds,
    final_apply,
    straight_analysis,
    straight_profile,
    straight_run,
    straight_select,
    threshold_answers,
)

from ttquery.compression import (
    DEFAULT_PARAMS,
    Coder,
    Encoding,
    EncodingContext,
    _encode,
    _field,
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
    _table_answer,
    list_index,
    run,
)
from ttquery.ordered_search import StepInstance, bin_n, enumerate_instances, rank_of
from ttquery.subjects import PROBE_LIGHT, get_subject

IDS = [s[0] for s in SUBJECTS]


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_cached_analysis_matches_recomputation(label, build, M, n, k, p):
    comp, adv = build()
    for cut, params in product(range(1, n + 1), PARAMS):
        # no coder measures past the output; the table is still checked
        coder = Coder(comp, adv, cut, 1, params) if cut <= comp.output_width else None
        for block, advice in inputs(M, k):
            table, heavy, own = straight_analysis(comp, block, advice, cut, params.C)
            assert prefix_weights(comp, block, advice, cut) == table, (block, advice, cut)
            if coder is None:
                continue
            wa = weight_analysis(coder, block, advice)
            assert dict(wa.table) == table and wa.heavy == heavy, (block, advice, cut)
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
        comp.prequery_state(1, "01").amps[((), 0)] = Fraction(1)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_profile_matches_straight_classification(label, build, M, n, k, p):
    comp, adv = build()
    # every cut a coder can measure: none measures past the output width
    for params, cut in product(PARAMS, range(1, min(n, comp.output_width) + 1)):
        coder = Coder(comp, adv, cut, 1, params)
        for inst in enumerate_instances(M, n):
            advice = adv(inst)
            prof = profile(coder, inst)
            want = straight_profile(comp, advice, inst.names, cut, params.C)
            assert prof.advice == advice and prof.blocks == want, (params, inst, cut)
            assert prof.good_indices == tuple(b[0] for b in want if b[2])
            assert prof.l_prime == len(prof.good_indices)


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
        for inst in enumerate_instances(M, n):
            advice = adv(inst)
            for pool in pools:
                bad = {j: inst.step_bits(j)[: n - p] for j in pool}
                want = straight_select(coder, advice, bad)
                assert _select(coder, advice, bad) == want, (params, inst, pool)


def test_select_matches_straight_selection_over_several_rounds():
    # the round count reaches 2 only once the pool holds 2t + 2 blocks
    # (t = T / C = 16 here), so 64 blocks; pool sizes rise and then fall,
    # and each size must get its own round count and threshold
    M = 64
    comp, adv = build_neighbor_probe(M, 1)
    coder = Coder(comp, adv, 1, M, CERT_PARAMS)
    advice = "01" * (M // 2)
    rounds = set()
    for size in [*range(M + 1), *range(M, -1, -1)]:
        bad = {j: "" for j in range(M - size + 1, M + 1)}
        sel = _select(coder, advice, bad)
        assert sel == straight_select(coder, advice, bad), size
        rounds.add(len(sel.W))
    assert rounds == {0, 1, 2}


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


WITH_ZERO_TERMS = pytest.mark.parametrize(
    "label, build, M, n, k, p", (*SUBJECTS, ZERO_TERMS), ids=[*IDS, ZERO_TERMS[0]]
)


def _oracle_inputs(M, n, adv):
    """Every (block, advice) input an instance's advice reaches."""
    return sorted({(b, adv(i)) for i in enumerate_instances(M, n) for b in range(1, M + 1)})


@WITH_ZERO_TERMS
def test_cached_oracle_matches_straight_oracle(label, build, M, n, k, p):
    # the oracle as run and overlap read it, each cached term's list index
    # and answer table, against the reference that answers every word by
    # the rule
    comp, adv = build()
    swept = _swept_thresholds(M, n)
    assert len(swept) > 2**(M * n)  # substituted vectors beyond the steps
    thresholds = sorted(set(swept) | set(every_threshold(M, n)))
    for block, advice in _oracle_inputs(M, n, adv):
        cached = comp.prequery_state(block, advice)
        assert len(cached.terms) == len(cached.amps)
        for steps in thresholds:
            got = {
                (lidx, _table_answer(table, steps), ws): amp
                for (lidx, table, ws, _square), amp in zip(cached.terms, cached.amps.values())
            }
            want = apply_oracle(comp, block, advice, steps)
            assert got == want, (block, advice, steps)


@WITH_ZERO_TERMS
def test_trusted_states_match_checked_construction(label, build, M, n, k, p):
    # apply_oracle and final_apply build their dicts without checking
    # them; each must still hold int-triple keys with cells in the
    # workspace and nonzero Fraction amplitudes, and the final must move
    # each cell through fn
    comp, adv = build()
    fn, cells = comp.final.fn, range(comp.workspace_dim)
    swept = _swept_thresholds(M, n)
    for block, advice in _oracle_inputs(M, n, adv):
        for steps in swept:
            state = apply_oracle(comp, block, advice, steps)
            final = final_apply(comp.final, state, comp.workspace_dim)
            for got in (state, final):
                assert type(got) is dict
                for key, amp in got.items():
                    assert type(key) is tuple and len(key) == 3
                    assert all(type(v) is int for v in key) and key[2] in cells
                    assert type(amp) is Fraction and amp != 0
            moved = {(lidx, aidx, fn(lidx, aidx, ws)): amp for (lidx, aidx, ws), amp in state.items()}
            assert final == moved, (block, advice, steps)


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_reachable_answers_match_every_threshold(label, build, M, n, k, p):
    comp, _ = build()
    for block, advice in inputs(M, k):
        cached = comp.prequery_state(block, advice)
        tables = {lidx: table for lidx, table, *_cell in cached.terms}
        for words, _ws in cached.amps:
            brute = {threshold_answers(words, s) for s in every_threshold(M, n)}
            assert _reachable_answers(tables[list_index(words, M, n)]) == brute


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_cached_terms_are_immutable_int_tuples(label, build, M, n, k, p):
    comp, _ = build()
    for block, advice in inputs(M, k):
        cached = comp.prequery_state(block, advice)
        pre = cached.amps
        assert comp._states[(block, advice)] is cached
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


def _memo_sweep(M, n, k, adv):
    """(block, advice, steps) of the runs to check: at M * n <= 8 every
    threshold vector in 1..N+1, so every class of every block, under every
    advice string; beyond that, the simulate sweep, every instance under
    its own advice."""
    blocks = range(1, M + 1)
    if M * n <= 8:
        for steps in every_threshold(M, n):
            for block, advice in inputs(M, k):
                yield block, advice, steps
        return
    for instance in enumerate_instances(M, n):
        advice = adv(instance)
        for block in blocks:
            yield block, advice, instance.steps


@pytest.mark.parametrize("name, M, n, k, from_doc", grid_params(max_M=4))
def test_memoized_runs_match_unmemoized_runs(name, M, n, k, from_doc):
    # a doc's final is a fiber table, and every fiber the table omits keeps
    # the identity
    comp, adv = subject(name, M, n, k, from_doc)
    fresh, _ = subject(name, M, n, k, from_doc)
    # thresholds under which every word of an input answers alike give it
    # one straight run, so the reference runs once per input and answers
    straight = {}
    for block, advice, steps in _memo_sweep(M, n, k, adv):
        lists = [words for words, _ws in fresh.prequery_state(block, advice).amps]
        key = (block, advice, *(threshold_answers(words, steps) for words in lists))
        if key not in straight:
            straight[key] = straight_run(fresh, block, advice, steps)
        for width, want in straight[key].items():
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
    assert first.prequery_state(1, "01").amps is not second.prequery_state(1, "01").amps
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
    # and built analyses of its own, equal but not shared, slot by slot
    assert one.analyses.keys() == two.analyses.keys()
    for advice, record in one.analyses.items():
        assert two.analyses[advice] == record
        for mine, theirs in zip(record, two.analyses[advice]):
            assert mine is theirs is None or mine is not theirs


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
    ctx = coder.ctx
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
    sel = straight_select(coder, f, {j: names[j][:cut] for j in bad})
    for j in bad:
        if j not in sel.W:
            w.put(f"suffix-{j}", names[j][cut:])
    return w.build(2), prof, sel


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_layout_encoder_matches_item_writer(label, build, M, n, k, p):
    comp, adv = build()
    cases = set()
    for coder in coders(comp, adv):
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


def _floor_verdict(rounds, sizes):
    """The survivor-floor rule: one size per round and one more, each at
    least its floor."""
    return len(sizes) == len(rounds.floors) and all(
        size >= floor for size, floor in zip(sizes, rounds.floors)
    )


@pytest.mark.parametrize("params", PARAMS, ids=["default", "cert", "edge"])
def test_survivor_floor_verdict_matches_direct_evaluation(params):
    # every Rounds record, its integer floors included, asked twice so that
    # the memoized one is checked as well as the one that filled it,
    # against the direct evaluation, whose floors are Fraction ceilings: at
    # every T a registry subject has at n <= 3, and every pool size of
    # M = 64. Under CERT_PARAMS and T = 1, t = 16: a round may shed 16 m
    # survivors
    rounds_seen = set()
    for T in range(8):
        ctx = EncodingContext(M=64, n=1, p=1, k=0, T=T, l=1, params=params)
        for pool in range(64):
            direct = direct_rounds(T, params.C, pool)
            for _ in range(2):
                assert ctx.rounds(pool) == direct, (T, pool)
            rounds_seen.add(direct.m)
    # t >= 256 under the default and edge thresholds keeps m at most 1
    assert rounds_seen == ({0, 1, 2} if params is CERT_PARAMS else {0, 1})


@pytest.mark.parametrize("label, build, M, n, k, p", SUBJECTS, ids=IDS)
def test_audit_integer_checks_match_fraction_rules(label, build, M, n, k, p):
    comp, adv = build()
    for coder in coders(comp, adv):
        ctx = coder.ctx
        for inst in enumerate_instances(M, n):
            audit = audit_instance(coder, inst)
            prof = profile(coder, inst)
            assert audit.rank_ok == all(
                bp.rank < ctx.t and bp.rank < 2**ctx.width_k for bp in prof.blocks if bp.good
            )
            assert audit.distance_ok == all(d <= 4 * ctx.C for d in audit.distances)
            if audit.selection is not None:
                sizes = audit.selection.survivor_sizes
                direct = direct_rounds(ctx.T, ctx.C, M - prof.l_prime)
                assert len(audit.selection.W) == direct.m
                assert audit.selection_floor_ok == _floor_verdict(direct, sizes)
