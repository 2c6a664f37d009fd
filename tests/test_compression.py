from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from machines import CERT_PARAMS, build_even_split, build_neighbor_probe, build_single_query

from ttquery.compression import (
    DEFAULT_PARAMS,
    BitReader,
    Coder,
    DecodeError,
    Encoding,
    EncodingContext,
    EncodingFormatError,
    ErrorParams,
    audit_instance,
    c_uv_values,
    ceil_log2,
    check_inequalities,
    decode,
    decode_single,
    double_bits,
    encode,
    encode_single,
    expected_length,
    lwss,
    profile,
    single_coder,
    verify_pigeonhole,
    weight_analysis,
    _substituted_steps,
)
from ttquery.model import AdviceFunction
from ttquery.ordered_search import StepInstance, enumerate_instances, parse_instance, rank_of
from ttquery.subjects import REGISTRY, SubjectError, build_probe, build_shortcut, get_subject


# ---------------------------------------------------------------- parameters


def _rational_sqrt(value):
    """The square root of a rational whose root is rational."""
    root = Fraction(isqrt(value.numerator), isqrt(value.denominator))
    assert root * root == value
    return root


def test_default_params_threshold():
    # eps' = (1 + c) eps = 3/8, and C = ((1 - 2 eps') / 4)^2
    params = DEFAULT_PARAMS
    assert vars(params).keys() == {"epsilon", "c", "C"}
    assert (1 + params.c) * params.epsilon == Fraction(3, 8)
    assert params.C == Fraction(1, 256)
    assert _rational_sqrt(params.C) == Fraction(1, 16)


def test_margin_identity():
    # 2 sqrt(C) + eps = 1/2 - c eps, with sqrt(C) rational
    for params in (DEFAULT_PARAMS, CERT_PARAMS, ErrorParams("1/4", "1/3")):
        lhs = 2 * _rational_sqrt(params.C) + params.epsilon
        assert lhs == Fraction(1, 2) - params.c * params.epsilon


def test_params_reject_large_slack():
    # at eps = 1/3 the slack must stay below d = 1/2
    with pytest.raises(ValueError):
        ErrorParams(Fraction(1, 3), Fraction(1, 2))
    with pytest.raises(ValueError):
        ErrorParams(Fraction(1, 3), 0)


def test_ceil_log2():
    assert ceil_log2(1) == 0
    assert ceil_log2(Fraction(1792)) == 11
    assert ceil_log2(Fraction(3, 2)) == 1
    with pytest.raises(ValueError):
        ceil_log2(0)


def _doubling_ceil_log2(x):
    """The former doubling loop, kept as the reference."""
    w, v = 0, Fraction(1)
    while v < x:
        v *= 2
        w += 1
    return w


def test_ceil_log2_matches_doubling_loop():
    nudges = (Fraction(0), Fraction(1, 3), Fraction(1, 1024), Fraction(5, 7), Fraction(1))
    values = {Fraction(1, 2**j) for j in range(1, 6)}
    for j in range(0, 70):
        for d in nudges:
            values.update(v for v in (2**j + d, 2**j - d) if v > 0)
    # rank widths: T / C under the default, certifying and edge thresholds
    thresholds = (DEFAULT_PARAMS.C, CERT_PARAMS.C, Fraction(4096, 1050625))
    values.update(Fraction(T) / C for T in range(1, 50) for C in thresholds)
    for x in values:
        assert ceil_log2(x) == _doubling_ceil_log2(x), x


def test_context_takes_every_positive_block_count():
    with pytest.raises(ValueError, match="M must be positive"):
        EncodingContext(0, 2, 1, 0, 1, 1)
    for M in range(1, 70):
        # the index field is the least w with 2**w >= M
        assert EncodingContext(M, 2, 1, 0, 1, 1).index_width == _doubling_ceil_log2(M), M


# ------------------------------------------------------------------- weights


def test_weight_is_membership_not_multiplicity():
    # multiple copies of one word in a list still weigh once
    comp, adv = get_subject("shortcut", 1, 4, 1)
    inst = StepInstance(1, 4, (8,))
    advice = adv(inst)
    # the list holds T = 12 copies of 0000, and no other word, yet weighs 1
    table = weight_analysis(Coder(comp, adv, 1, 1), 1, advice).table
    assert table[(1, "000")] == 1
    assert (1, "001") not in table


def test_weight_p_sums_completions():
    comp, adv = get_subject("full", 1, 2, 0)
    advice = adv(StepInstance(1, 2, (1,)))
    table = weight_analysis(Coder(comp, adv, 1, 1), 1, advice).table
    # the full subject queries ranks 1..3, so the "0" prefix holds two of them
    assert table[(1, "0")] == 2
    assert table[(1, "1")] == 1


def test_own_weight_mass_bounded_by_queries():
    comp, adv = get_subject("probe", 2, 2, 2)
    coder = Coder(comp, adv, 1, 1)
    for inst in enumerate_instances(2, 2, 100):
        advice = adv(inst)
        for i in (1, 2):
            wa = weight_analysis(coder, i, advice)
            assert wa.own_mass == sum(
                wa.table.get((i, prefix), 0) for prefix in ("0", "1")
            )
            assert wa.own_mass <= comp.T


def test_profile_probe_goodness():
    comp, adv = get_subject("probe", 2, 3, 2)
    coder = Coder(comp, adv, 1, 1)
    prof = profile(coder, StepInstance(2, 3, (2, 5)))
    assert prof.good_indices == (1,)
    assert prof.l_prime == 1
    prof = profile(coder, StepInstance(2, 3, (1, 2)))
    assert prof.l_prime == 2


def test_profile_ranks_count_heavy_prefixes_below():
    comp, adv = get_subject("full", 1, 3, 0)
    prof = profile(Coder(comp, adv, 1, 1), StepInstance(1, 3, (8,)))
    entry = prof.blocks[0]
    assert entry.good
    # every 2-bit prefix is heavy for the full subject, step 8 sits last
    assert entry.rank == 3


# ------------------------------------------------- constants and inequalities


def test_c_uv_frozen_value():
    comp, adv = get_subject("full", 2, 3, 0)
    coder = Coder(comp, adv, 1, 1)
    ctx = coder.ctx
    prof = profile(coder, StepInstance(2, 3, (1, 1)))
    # two good blocks, l = 1: the instance sits on the first branch
    assert check_inequalities(ctx, prof).c_uv == Fraction(1, 2048)
    first, second = c_uv_values(ctx)
    assert first == Fraction(1, 2048)
    assert second == Fraction(1, 4096)


def test_c_uv_irrational_branch_has_no_value():
    # l = 3 does not divide k + 2 = 2, so the good-branch constant is irrational
    comp, adv = get_subject("full", 4, 1, 0)
    coder = Coder(comp, adv, 1, 3)
    ctx = coder.ctx
    first, second = c_uv_values(ctx)
    assert first is None and second is not None
    prof = profile(coder, StepInstance(4, 1, (1, 1, 1, 1)))
    assert prof.l_prime == 4
    assert check_inequalities(ctx, prof).c_uv is None


def test_check_inequalities_still_exact_on_irrational_branch():
    comp, adv = get_subject("full", 4, 1, 0)
    coder = Coder(comp, adv, 1, 3)
    prof = profile(coder, StepInstance(4, 1, (1, 1, 1, 1)))
    rep = check_inequalities(coder.ctx, prof)
    assert rep.case == 1
    assert rep.c_uv is None and rep.matches_closed_form is None
    assert isinstance(rep.case1_holds, bool)


def test_check_inequalities_needs_a_query():
    comp, adv = get_subject("zero", 2, 2, 0)
    coder = Coder(comp, adv, 1, 1)
    prof = profile(coder, StepInstance(2, 2, (1, 1)))
    with pytest.raises(ValueError):
        check_inequalities(coder.ctx, prof)


def test_certified_setup_few_good():
    comp, adv = build_single_query(1, 9)
    coder = Coder(comp, adv, 1, 1, CERT_PARAMS)
    prof = profile(coder, parse_instance("M=1 n=9 steps=1"))
    rep = check_inequalities(coder.ctx, prof)
    assert rep.case == 1 and rep.certified
    assert rep.matches_closed_form in (True, None)


def test_certified_setup_many_bad():
    comp, adv = build_single_query(512, 4)
    coder = Coder(comp, adv, 4, 1, CERT_PARAMS)
    inst = StepInstance(512, 4, tuple([5] * 512))
    prof = profile(coder, inst)
    assert prof.l_prime == 0
    rep = check_inequalities(coder.ctx, prof)
    assert rep.case == 2 and rep.certified


# ------------------------------------------------------------- bit plumbing


def test_double_bits():
    assert double_bits("01") == "0011"
    assert double_bits("") == ""


def test_bit_reader_doubled_and_separator():
    # doubled payload "01", closed by the "01" separator pair
    r = BitReader("001101")
    assert r.take_doubled() == "01"
    r.expect_end()


def test_bit_reader_rejects_malformed_pair():
    r = BitReader("10")
    with pytest.raises(EncodingFormatError):
        r.take_doubled()


def test_bit_reader_rejects_overrun_and_leftover():
    r = BitReader("1")
    with pytest.raises(EncodingFormatError):
        r.take(2)
    r2 = BitReader("11")
    r2.take(1)
    with pytest.raises(EncodingFormatError):
        r2.expect_end()


def test_encoding_items_must_tile():
    Encoding(1, "0110", (("a", 0, 2), ("b", 2, 2)))
    with pytest.raises(ValueError):
        Encoding(1, "0110", (("a", 0, 2), ("b", 3, 1)))
    with pytest.raises(ValueError):
        Encoding(1, "0110", (("a", 0, 2),))


def test_encoding_hex_pads_to_nibble():
    enc = Encoding(1, "111", (("a", 0, 3),))
    assert enc.hex == "e"
    assert Encoding(2, "", ()).hex == ""


# ---------------------------------------------------------------- selection


def test_lwss_zero_queries_selects_nothing():
    comp, adv = get_subject("zero", 2, 2, 0)
    inst = StepInstance(2, 2, (1, 2))
    coder = Coder(comp, adv, 1, 1)
    prof = profile(coder, inst)
    sel = lwss(coder, prof)
    assert coder.ctx.rounds(2 - prof.l_prime).m == 0 and sel.W == ()


def test_lwss_certified_many_bad_frozen_selection():
    comp, adv = build_single_query(512, 4)
    inst = StepInstance(512, 4, tuple([3] * 512))
    coder = Coder(comp, adv, 4, 1, CERT_PARAMS)
    prof = profile(coder, inst)
    sel = lwss(coder, prof)
    rounds = coder.ctx.rounds(512 - prof.l_prime)
    assert rounds.m == 6
    assert sel.W == (1, 3, 5, 7, 9, 11)
    # every recorded cross stays strictly under the admission threshold
    assert all(wt < rounds.threshold for _, _, wt in sel.crosses)


# ------------------------------------------------------------ encode, decode


def test_encode_layout_and_length_full():
    comp, adv = get_subject("full", 2, 3, 0)
    coder = Coder(comp, adv, 1, 1)
    inst = StepInstance(2, 3, (3, 7))
    enc = encode(coder, inst)
    assert enc.case == 1
    assert len(enc) == 30
    assert enc.items[0][0] == "advice"
    names = [name for name, _, _ in enc.items]
    assert "separator" in names
    assert len(enc) == expected_length(coder.ctx, 2, 1)


def test_decode_inverts_encode():
    comp, adv = get_subject("full", 2, 3, 0)
    coder = Coder(comp, adv, 1, 1)
    for steps in ((1, 1), (3, 7), (8, 2), (5, 5)):
        inst = StepInstance(2, 3, steps)
        assert decode(coder, encode(coder, inst)) == inst


def test_decode_runs_the_machine_not_the_advice_table():
    # the advice bits come out of the code itself; the template only cross-checks
    comp, adv = get_subject("probe", 2, 2, 2)
    coder = Coder(comp, adv, 1, 2)
    inst = StepInstance(2, 2, (1, 4))
    enc = encode(coder, inst)
    assert decode(coder, enc) == inst


def test_decode_rejects_flipped_separator():
    comp, adv = get_subject("zero", 2, 2, 0)
    coder = Coder(comp, adv, 1, 1)
    inst = StepInstance(2, 2, (2, 3))
    enc = encode(coder, inst)
    flipped = "10" + enc.bits[2:]
    bad = Encoding(enc.case, flipped, enc.items)
    with pytest.raises(EncodingFormatError):
        decode(coder, bad)


def test_decode_rejects_truncation():
    comp, adv = get_subject("full", 2, 2, 0)
    coder = Coder(comp, adv, 1, 1)
    inst = StepInstance(2, 2, (1, 2))
    enc = encode(coder, inst)
    bad = Encoding(enc.case, enc.bits[:-1], (("raw", 0, len(enc.bits) - 1),))
    with pytest.raises(EncodingFormatError):
        decode(coder, bad)


def test_decode_rejects_case_tag_mismatch():
    comp, adv = get_subject("full", 2, 2, 0)
    coder = Coder(comp, adv, 1, 1)
    inst = StepInstance(2, 2, (1, 2))
    enc = encode(coder, inst)
    relabeled = Encoding(2, enc.bits, (("raw", 0, len(enc.bits)),))
    with pytest.raises((DecodeError, EncodingFormatError)):
        decode(coder, relabeled)


def _machines():
    """Every registry subject at every shape it takes with M <= 4 and
    n <= 3, and the two test machines at the same sizes."""
    for M, n in product(range(1, 5), range(1, 4)):
        for name, k in product(REGISTRY, range(M * n + 1)):
            try:
                yield get_subject(name, M, n, k)
            except SubjectError:
                pass
        if M >= 3:
            yield build_neighbor_probe(M, n)
        yield build_single_query(M, n)


def test_coder_context_holds_the_machine_shape_and_the_given_p_l_params():
    built = 0
    for comp, adv in _machines():
        for p, l, params in product(
            range(1, comp.output_width + 1), {1, comp.M}, (DEFAULT_PARAMS, CERT_PARAMS)
        ):
            ctx = Coder(comp, adv, p, l, params).ctx
            assert (ctx.M, ctx.n, ctx.k, ctx.T) == (comp.M, comp.n, comp.advice_len, comp.T)
            assert (ctx.p, ctx.l) == (p, l) and ctx.C == params.C
            built += 1
    assert built


@pytest.mark.parametrize(
    "subject, M, n, k, p, l, message",
    [
        # probe writes one output cell
        ("probe", 2, 3, 2, 2, 1, "cannot measure more cells than the computer writes"),
    ],
    ids=["p"],
)
def test_coder_refuses_each_mismatch(subject, M, n, k, p, l, message):
    comp, adv = get_subject(subject, M, n, k)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Coder(comp, adv, p, l)


@pytest.mark.parametrize(
    "subject, M, n, k, message",
    [
        ("full", 2, 2, 0, "the single scheme needs M = 1"),
        ("advised", 1, 3, 3, r"the single scheme needs k \+ 1 <= n"),
        ("probe", 1, 3, 1, r"the single scheme reads k \+ 1 cells, more than the subject writes"),
    ],
)
def test_single_coder_refuses_each_shape(subject, M, n, k, message):
    comp, adv = get_subject(subject, M, n, k)
    with pytest.raises(ValueError, match=f"^{message}$"):
        single_coder(comp, adv)


@pytest.mark.parametrize("M, n, p", [(2, 2, 1), (1, 3, 2)], ids=["M=2", "p=2"])
def test_single_scheme_refuses_a_multi_coder(M, n, p):
    comp, adv = get_subject("full", M, n, 0)
    multi = Coder(comp, adv, p, 1)
    inst = StepInstance(M, n, (1,) * M)
    enc = encode(multi, inst)
    for call in (lambda: encode_single(multi, inst), lambda: decode_single(multi, enc)):
        with pytest.raises(ValueError, match="the single scheme needs a coder"):
            call()


def _scheme_coder(scheme, comp, adv):
    """The scheme's coder at p = 1 and l = 1, with its decoder."""
    if scheme == "single":
        return single_coder(comp, adv), decode_single
    return Coder(comp, adv, 1, 1), decode


@pytest.mark.parametrize(
    "scheme, bits",
    # multi: no advice, no good indices, separator, rank, suffix;
    # single: no advice, suffix, rank
    [("multi", "01" + "1" * 11 + "0"), ("single", "0" + "1" * 11)],
    ids=["multi", "single"],
)
def test_decoders_refuse_a_rank_past_the_heavy_list(scheme, bits):
    comp, adv = get_subject("full", 1, 3, 0)
    coder, decode_one = _scheme_coder(scheme, comp, adv)
    assert coder.ctx.width_k == 11
    assert len(weight_analysis(coder, 1, "").heavy) < 2047
    enc = Encoding(1, bits, (("raw", 0, len(bits)),))
    with pytest.raises(DecodeError, match="^block 1 has no heavy prefix at rank 2047$"):
        decode_one(coder, enc)


@pytest.mark.parametrize(
    "scheme, bits",
    # steps=1's case-1 codes on shortcut M=1 n=4 k=1 with the advice bit,
    # 0 for that instance, flipped to 1
    [("multi", "1010000000000000"), ("single", "100000000000000")],
    ids=["multi", "single"],
)
def test_decoders_refuse_a_code_whose_decoded_step_does_not_reproduce_its_advice(scheme, bits):
    comp, adv = get_subject("shortcut", 1, 4, 1)
    coder, decode_one = _scheme_coder(scheme, comp, adv)
    encode_one = encode if scheme == "multi" else encode_single
    inst = StepInstance(1, 4, (1,))
    assert adv(inst) == "0" and encode_one(coder, inst).bits == "0" + bits[1:]
    enc = Encoding(1, bits, (("raw", 0, len(bits)),))
    with pytest.raises(
        DecodeError, match="^decoded instance does not reproduce the advice string$"
    ):
        decode_one(coder, enc)


@pytest.mark.parametrize("scheme", ["multi", "single"])
def test_decoders_refuse_a_selected_block_without_a_majority(scheme):
    comp, adv = build_even_split(3)
    coder, decode_one = _scheme_coder(scheme, comp, adv)
    # step 8 is 111, whose prefix location 1 (000) does not share
    enc = (encode if scheme == "multi" else encode_single)(coder, StepInstance(1, 3, (8,)))
    assert enc.case == 2
    with pytest.raises(DecodeError, match="^no outcome for block 1 wins a strict majority$"):
        decode_one(coder, enc)


# ------------------------------------------------------------------- census


def test_verify_pigeonhole_counts():
    comp, adv = get_subject("full", 2, 2, 0)
    rep = verify_pigeonhole(Coder(comp, adv, 1, 1))
    assert rep.ok and rep.injective
    assert rep.total == 16
    assert rep.case1_count == 16 and rep.case2_count == 0
    assert rep.long_count == 16  # every code is at least Mn = 4 bits


def test_audit_instance_full_profile():
    comp, adv = get_subject("probe", 2, 3, 2)
    coder = Coder(comp, adv, 1, 2)
    audit = audit_instance(coder, StepInstance(2, 3, (5, 2)))
    assert audit.ok
    assert audit.length == audit.expected
    assert all(d <= 4 * coder.ctx.C for d in audit.distances)


def test_audit_with_no_queries_has_vacuous_certificate():
    comp, adv = get_subject("zero", 2, 2, 0)
    coder = Coder(comp, adv, 1, 1)
    audit = audit_instance(coder, StepInstance(2, 2, (4, 1)))
    assert audit.certificate is None and audit.certificate_ok
    assert audit.ok


# ------------------------------------------------------- substituted answers


def _closure_rule(cut, names, prefix_of, pending):
    """The substitution rule as a per-word closure, kept as the reference.

    A location prefix below or above the owning block's step prefix gets
    its true answer; on a prefix match the answer compares suffixes when
    the step is known and is 0 while the owner is pending.
    """

    def answer(block, location):
        v, z = location[:cut], location[cut:]
        own = prefix_of[block]
        if v < own:
            return 0
        if v > own:
            return 1
        if block in pending:
            return 0
        return 1 if z >= names[block][cut:] else 0

    return answer


@pytest.mark.parametrize(
    "name, M, n",
    [
        ("probe", 2, 2),
        ("probe", 3, 2),
        ("neighbor_probe", 3, 2),
        ("shortcut", 1, 4),
        ("single_query", 2, 3),
    ],
)
def test_substituted_steps_match_closure_rule(name, M, n):
    builders = {
        "probe": build_probe,
        "neighbor_probe": build_neighbor_probe,
        "shortcut": lambda M, n: build_shortcut(n),
        "single_query": build_single_query,
    }
    comp, _ = builders[name](M, n)
    k = comp.advice_len
    words = {
        w
        for block in range(1, M + 1)
        for a in range(2**k)
        for (qlist, _ws) in comp.prequery_state(block, format(a, f"0{k}b") if k else "").amps
        for w in qlist
    }
    checked = 0
    for p in range(1, n + 1):
        cut = n - p
        for instance in enumerate_instances(M, n):
            names = {i: instance.step_bits(i) for i in range(1, M + 1)}
            prefix_of = {i: names[i][:cut] for i in names}
            for mask in range(2**M):
                pending = {i for i in names if mask >> (i - 1) & 1}
                steps = _substituted_steps(M, p, names, prefix_of, pending)
                assert all(1 <= s <= 2**n + 1 for s in steps)
                reference = _closure_rule(cut, names, prefix_of, pending)
                for w in words:
                    got = 1 if rank_of(w.location) >= steps[w.block - 1] else 0
                    assert got == reference(w.block, w.location), (p, instance, pending, w)
                    checked += 1
    assert checked


def _counting(advice_fn):
    calls = []

    def fn(instance):
        calls.append(instance)
        return advice_fn(instance)

    return AdviceFunction(advice_fn.length, fn), calls


@pytest.mark.parametrize(
    "subject, M, n, k, l, scheme",
    [
        ("probe", 4, 2, 4, 4, "multi"),
        ("full", 2, 2, 0, 1, "multi"),
        ("shortcut", 1, 4, 1, 1, "single"),
    ],
)
def test_advice_evaluated_once_per_encode_audit_and_decode(subject, M, n, k, l, scheme):
    comp, adv = get_subject(subject, M, n, k)
    counted, calls = _counting(adv)
    if scheme == "single":
        coder, encode_one, decode_one = single_coder(comp, counted), encode_single, decode_single
    else:
        coder, encode_one, decode_one = Coder(comp, counted, 1, l), encode, decode
    cases = set()
    for instance in enumerate_instances(M, n):
        enc, prof = encode_one(coder, instance), profile(coder, instance)
        cases.add(enc.case)
        for call, arg, want in (
            (encode_one, instance, 1),
            (audit_instance, instance, 1),
            (decode_one, enc, 1),
            (lwss, prof, 0),
        ):
            calls.clear()
            call(coder, arg)
            assert len(calls) == want, (call.__name__, instance, len(calls))
    # probe at l = M reaches the selection
    assert subject != "probe" or 2 in cases
    calls.clear()
    with pytest.raises(ValueError, match="disagree on M or n"):
        encode_one(coder, StepInstance(M, n + 1, (1,) * M))
    assert not calls


@pytest.mark.parametrize("inst", [StepInstance(1, 2, (3,)), StepInstance(2, 3, (3, 5))])
def test_coder_refuses_an_instance_of_another_shape(inst):
    comp, adv = get_subject("full", 2, 2, 0)
    coder = Coder(comp, adv, 1, 1)
    for call in (
        lambda: profile(coder, inst),
        lambda: encode(coder, inst),
        lambda: audit_instance(coder, inst),
    ):
        with pytest.raises(ValueError, match="disagree on M or n"):
            call()
