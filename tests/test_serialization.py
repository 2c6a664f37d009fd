"""Differential gate for subject serialization.

A subject exported with computer_to_doc and advice_to_doc and loaded back
from JSON must produce the same reports, byte for byte, as the built-in it
came from; only the subject name in the reports differs.
"""

import itertools
import json

import pytest

from ttquery.harness import (
    ExperimentConfig,
    cmd_bounds,
    cmd_lemmas,
    cmd_roundtrip,
    cmd_simulate,
    report_csv,
    report_json,
)
from ttquery.model import (
    QueryWord,
    _answer_table,
    _reachable_answers,
    advice_to_doc,
    computer_to_doc,
)
from ttquery.ordered_search import enumerate_instances, rank_of
from ttquery.subjects import get_subject


def _inputs(M, k):
    return [
        (block, format(a, f"0{k}b") if k else "")
        for block in range(1, M + 1)
        for a in range(2**k)
    ]


def _export(name, M, n, k):
    comp, adv = get_subject(name, M, n, k)
    return {
        "computer": computer_to_doc(comp, _inputs(M, k)),
        "advice": advice_to_doc(adv, enumerate_instances(M, n)),
    }


def _reports(cfg):
    runs = [cmd_simulate(cfg), cmd_roundtrip(cfg), cmd_lemmas(cfg), cmd_bounds(cfg)]
    if cfg.M == 1:
        runs.append(cmd_roundtrip(cfg._replace(scheme="single")))
    return [report_csv(r) + report_json(r) for r in runs]


# (subject, M, n, k, p, l); probe with M = 2 and l = 2 reaches case 2, where
# the decoder answers a pending block's words by the substitution rule.
CASES = [
    ("full", 1, 3, 0, 3, 1),
    ("full", 2, 2, 0, 1, 1),
    ("advised", 1, 3, 1, 2, 1),
    ("advised", 2, 2, 2, 1, 1),
    ("zero", 2, 2, 0, 1, 1),
    ("probe", 2, 2, 2, 1, 2),
    ("shortcut", 1, 3, 1, 2, 1),
]


@pytest.mark.parametrize("name, M, n, k, p, l", CASES)
def test_exported_subject_reports_match_builtin(tmp_path, name, M, n, k, p, l):
    path = tmp_path / "subject.json"
    path.write_text(json.dumps(_export(name, M, n, k)))
    cfg = ExperimentConfig(M=M, n=n, k=k, p=p, l=l, subject=name)
    loaded = ExperimentConfig(M=M, n=n, k=k, p=p, l=l, subject=str(path))
    built_in = _reports(cfg)
    from_doc = [text.replace(str(path), name) for text in _reports(loaded)]
    assert from_doc == built_in


def _fiber_count(name, M, n, k):
    return len(_export(name, M, n, k)["computer"]["final"]["table"])


@pytest.mark.parametrize("M, n", [(1, 2), (1, 4), (1, 5), (2, 3)])
def test_full_exports_at_most_N_plus_1_fibers_per_list(M, n):
    # one query list per block, answered by a threshold in 1..N+1; the
    # all-ones answers name step 1, whose XOR value 0 leaves the fiber out
    assert _fiber_count("full", M, n, 0) == M * (2**n - 1)


def test_shortcut_fiber_count():
    # n = 4: the duplicate list sees 2 answer strings, the ascending list 13,
    # of which the 4 naming a step of residue 1 mod 4 are left out
    assert _fiber_count("shortcut", 1, 4, 1) == 11


def test_reachable_answers_are_every_threshold_pattern():
    # words in two blocks, rank N = 4 included: its 0 answer needs s = N + 1
    words = (
        QueryWord(2, "11"),
        QueryWord(1, "01"),
        QueryWord(2, "00"),
        QueryWord(2, "11"),
        QueryWord(1, "10"),
    )
    patterns = {
        int("".join("1" if rank_of(w.location) >= s[w.block - 1] else "0" for w in words), 2)
        for s in itertools.product(range(1, 6), repeat=2)
    }
    ranked = tuple((w.block, rank_of(w.location)) for w in words)
    assert _reachable_answers(_answer_table(ranked)) == patterns
    assert len(patterns) == 3 * 3
