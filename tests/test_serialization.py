"""Differential gate for subject serialization.

A subject exported with computer_to_doc and advice_to_doc and loaded back
from JSON must produce the same reports, byte for byte, as the built-in it
came from; only the subject name in the reports differs.
"""

import itertools
import json

import pytest
from machines import export, inputs, reports

from ttquery.harness import ExperimentConfig
from ttquery.model import (
    FiberFinal,
    NonadaptiveComputer,
    QueryWord,
    _answer_table,
    _reachable_answers,
    _table_answer,
    computer_from_doc,
    computer_to_doc,
    run,
)
from ttquery.ordered_search import enumerate_instances, rank_of
from ttquery.subjects import get_subject


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
    path.write_text(json.dumps(export(*get_subject(name, M, n, k))))
    cfg = ExperimentConfig(M=M, n=n, k=k, p=p, l=l, subject=name)
    loaded = ExperimentConfig(M=M, n=n, k=k, p=p, l=l, subject=str(path))
    built_in = reports(cfg)
    from_doc = [text.replace(str(path), name) for text in reports(loaded)]
    assert from_doc == built_in


def _fiber_count(name, M, n, k):
    return len(export(*get_subject(name, M, n, k))["computer"]["final"]["table"])


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


def _long_list_machine():
    """M = 1, n = 11: one list of 1,400 words, ranks 1..1400, whose list
    index has about 4,600 decimal digits. The final swaps the two workspace
    cells of the one fiber that threshold 700 reaches; returns the computer
    and that fiber's answer index."""
    n, T = 11, 1400
    words = tuple(QueryWord(1, format(rank - 1, f"0{n}b")) for rank in range(1, T + 1))
    moved = _table_answer(_answer_table(tuple((1, rank) for rank in range(1, T + 1))), (700,))

    def fn(lidx, aidx, ws):
        return 1 - ws if aidx == moved else ws

    comp = NonadaptiveComputer(
        M=1, n=n, T=T, advice_len=0, output_width=1, scratch_dim=1,
        prequery=lambda block, advice: {(words, 0): 1}, final=FiberFinal(fn),
    )
    return comp, moved


def test_a_list_index_past_the_decimal_digit_limit_round_trips():
    comp, moved = _long_list_machine()
    ((lidx, *_rest),) = comp.prequery_state(1, "").terms
    assert lidx >= 10**4300
    text = json.dumps(computer_to_doc(comp, [(1, "")]))
    assert 30_000 < len(text) < 35_000
    doc = json.loads(text)
    assert list(doc["final"]["table"]) == [f"{lidx:#x},{moved}"]
    loaded = computer_from_doc(doc)
    swapped = []
    for step in range(1, 2**11 + 2):
        got = run(loaded, 1, "", (step,))
        assert got == run(comp, 1, "", (step,)), step
        if got == {"1": 1}:
            swapped.append(step)
    # every threshold up to 1401 is a class of its own
    assert swapped == [700]


def test_a_doc_with_decimal_list_indices_still_loads():
    # docs written before list indices were hex keep their decimal keys
    comp, adv = get_subject("shortcut", 1, 4, 1)
    doc = computer_to_doc(comp, inputs(1, 1))
    fibers = doc["final"]["table"]
    assert fibers and all(key.startswith("0x") for key in fibers)
    decimal = {}
    for key, images in fibers.items():
        lidx, aidx = key.split(",")
        decimal[f"{int(lidx, 16)},{aidx}"] = images
    old = computer_from_doc(dict(doc, final={"form": "fibers", "table": decimal}))
    new = computer_from_doc(doc)
    for inst in enumerate_instances(1, 4):
        advice = adv(inst)
        assert run(old, 1, advice, inst.steps) == run(new, 1, advice, inst.steps)
