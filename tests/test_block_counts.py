"""The coder at block counts that are not powers of two.

Index fields are ceil(log2 M) bits wide for every M >= 1, so M = 3 and
M = 5 run the same commands as M = 2 and M = 4: every roundtrip passes,
the codes are injective, the audits pass and bounds prints every row. The
certifying constant keeps matching its inequalities, and a good-index
field that names a block past M is refused while decoding.
"""

from fractions import Fraction
from itertools import product

import pytest
from machines import CERT_PARAMS

from ttquery.compression import (
    DEFAULT_PARAMS,
    Coder,
    DecodeError,
    Encoding,
    EncodingContext,
    _field,
    c_uv_values,
    decode,
    double_bits,
    encode,
)
from ttquery.harness import ExperimentConfig, cmd_bounds, cmd_lemmas, cmd_roundtrip
from ttquery.ordered_search import enumerate_instances
from ttquery.subjects import get_subject


# (subject, M, n, k, p): full, advised and probe at small n
CONFIGS = (
    ("full", 3, 2, 0, 2),
    ("advised", 3, 2, 3, 2),
    ("probe", 3, 2, 3, 1),
    ("full", 5, 1, 0, 1),
    ("advised", 5, 2, 5, 2),
    ("probe", 5, 2, 5, 1),
)
IDS = ["{}-{}-{}".format(*c) for c in CONFIGS]


def _configs(subject, M, n, k, p):
    for l, epsilon in product(sorted({1, M}), (Fraction(1, 3), Fraction(0))):
        c = Fraction(1, 8) if epsilon else Fraction(1, 2)
        yield ExperimentConfig(M=M, n=n, p=p, k=k, l=l, epsilon=epsilon, c=c, subject=subject)


@pytest.mark.parametrize("subject, M, n, k, p", CONFIGS, ids=IDS)
def test_roundtrip_passes_every_instance(subject, M, n, k, p):
    cases = set()
    for cfg in _configs(subject, M, n, k, p):
        report = cmd_roundtrip(cfg)
        total = len(report.rows)
        assert total == 2 ** (M * n)
        assert report.ok and report.summary["roundtrips"] == f"{total}/{total}", cfg
        assert report.summary["injective"], cfg
        case1 = [row[3] for row in report.rows if row[1] == "1"]
        assert len(set(case1)) == len(case1), cfg
        cases.update(row[1] for row in report.rows)
    # probe steps outside {1, 2} make their blocks bad, so both cases occur
    assert cases == ({"1", "2"} if subject == "probe" else {"1"})


@pytest.mark.parametrize("subject, M, n, k, p", CONFIGS, ids=IDS)
def test_lemmas_and_bounds_pass(subject, M, n, k, p):
    for cfg in _configs(subject, M, n, k, p):
        report = cmd_lemmas(cfg)
        assert report.ok and report.summary["failed"] == 0, cfg
        bounds = cmd_bounds(cfg)
        names = [row[0] for row in bounds.rows]
        assert names[:3] == ["reference-upper", "subject-T", "adversary-floor"]
        assert names[3:] == ["c-uv-good-branch", "c-uv-bad-branch"] * M
        assert [row[1] for row in bounds.rows[3:]] == [
            str(l) for l in range(1, M + 1) for _ in range(2)
        ]


def test_closed_form_matches_the_inequalities_for_every_M():
    rational = 0
    for M, n, k, T, params in product(
        range(1, 9), (1, 2, 3, 5, 8, 12), range(0, 5), (1, 3), (DEFAULT_PARAMS, CERT_PARAMS)
    ):
        for l, p in product(range(1, M + 1), range(1, n + 1)):
            ctx = EncodingContext(M=M, n=n, p=p, k=k, T=T, l=l, params=params)
            for report in ctx.inequality_reports:
                if report.c_uv is not None:
                    assert report.matches_closed_form, (M, n, k, T, l, p)
                    rational += 1
    assert rational


def test_closed_form_at_powers_of_two_is_the_M_squared_form():
    for M, n, k, l, p in product((1, 2, 4, 8), range(1, 8), range(0, 5), range(1, 9), range(1, 4)):
        if l > M or p > n or (k + 2) % l:
            continue
        ctx = EncodingContext(M=M, n=n, p=p, k=k, T=1, l=l)
        e = p + 1 + (k + 2) // l
        assert c_uv_values(ctx)[0] == ctx.C * 2**n / (M * M * Fraction(2) ** e)


@pytest.mark.parametrize("M", [3, 5, 6, 7])
def test_index_past_M_is_a_decode_error(M):
    comp, adv = get_subject("full", M, 1, 0)
    coder = Coder(comp, adv, 1, 1)
    ctx = coder.ctx
    w = ctx.index_width
    for v in range(M, 2**w):
        # block v + 1 does not exist; the fields after the index are unread
        bits = double_bits(_field(v, w)) + "01" + "0" * (M * ctx.n)
        with pytest.raises(DecodeError, match=f"good index {v + 1}"):
            decode(coder, Encoding(1, bits, (("code", 0, len(bits)),)))
        # and after a valid first index
        bits = double_bits(_field(0, w) + _field(v, w)) + "01" + "0" * (M * ctx.n)
        with pytest.raises(DecodeError, match=f"good index {v + 1}"):
            decode(coder, Encoding(1, bits, (("code", 0, len(bits)),)))
    # the real codes of the sweep still decode
    for inst in enumerate_instances(M, 1):
        assert decode(coder, encode(coder, inst)) == inst
