"""Differential gate for the reference machine.

`full` is the advised machine at k = 0, and the advised machine's final
transform reads only the answer index: the prequery writes the advised
prefix into the workspace and the final XORs in the remaining bits. The
two builders below are the straightforward forms, kept as references: a
separate no-advice machine, and finals that recognise each window's query
list by its index. Both forms must give the same query lists, amplitudes,
output distributions, overlaps and reports.
"""

import json
from fractions import Fraction
from itertools import product

import pytest
from machines import every_threshold, export, reports

from ttquery import subjects
from ttquery.adversary import partition_by_advice, zeta
from ttquery.harness import ExperimentConfig, cmd_simulate
from ttquery.model import (
    AdviceFunction,
    FiberFinal,
    NonadaptiveComputer,
    QueryWord,
    answer_to_outcome,
    list_index,
    no_advice,
    run,
)
from ttquery.ordered_search import bin_n, enumerate_instances
from ttquery.subjects import get_subject


def _ones(answers_idx):
    return bin(answers_idx).count("1")


def _xor_final(target_fn):
    return FiberFinal(lambda lidx, aidx, ws: ws ^ target_fn(lidx, aidx))


def reference_full(M, n):
    """No-advice machine querying locations 1..N-1, its final keyed by list."""
    N = 2**n
    lists = {}
    for b in range(1, M + 1):
        words = tuple(QueryWord(b, bin_n(n, r)) for r in range(1, N))
        lists[list_index(words, M, n)] = words

    def prequery(block, advice):
        words = tuple(QueryWord(block, bin_n(n, r)) for r in range(1, N))
        return {(words, 0): Fraction(1)}

    def target(lidx, aidx):
        if lidx not in lists:
            return 0
        return answer_to_outcome(bin_n(n, N - _ones(aidx)))

    computer = NonadaptiveComputer(
        M=M, n=n, T=N - 1, advice_len=0, output_width=n, scratch_dim=1,
        prequery=prequery, final=_xor_final(target),
    )
    return computer, no_advice()


def reference_advised(M, n, k):
    """Advised machine whose final looks up each window's last location."""
    q = k // M
    T = 2 ** (n - q) - 1

    def window(block, prefix):
        if prefix:
            lo = int(prefix + "0" * (n - q), 2) + 1
            hi = int(prefix + "1" * (n - q), 2) + 1
        else:
            lo, hi = 1, 2**n
        words = tuple(QueryWord(block, bin_n(n, r)) for r in range(lo, hi))
        return words, hi

    windows = {}
    for b in range(1, M + 1):
        for g in range(2**q):
            words, hi = window(b, format(g, f"0{q}b") if q else "")
            if T:
                windows[list_index(words, M, n)] = hi

    def prequery(block, advice):
        prefix = advice[(block - 1) * q : block * q]
        words, _hi = window(block, prefix)
        ws = answer_to_outcome(prefix) if q == n else 0
        return {(words, ws): Fraction(1)}

    def target(lidx, aidx):
        hi = windows.get(lidx)
        if hi is None:
            return 0
        return answer_to_outcome(bin_n(n, hi - _ones(aidx)))

    final = _xor_final(target) if T else FiberFinal(lambda lidx, aidx, ws: ws)

    def advice_bits(instance):
        parts = [instance.step_bits(b)[:q] for b in range(1, M + 1)]
        return "".join(parts) + "0" * (k - M * q)

    computer = NonadaptiveComputer(
        M=M, n=n, T=T, advice_len=k, output_width=n, scratch_dim=1,
        prequery=prequery, final=final,
    )
    return computer, AdviceFunction(k, advice_bits)


def _reference(name, M, n, k):
    return reference_full(M, n) if name == "full" else reference_advised(M, n, k)


SHAPES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (4, 2)]
CASES = [
    (name, M, n, k)
    for M, n in SHAPES
    for name, k in [("full", 0)] + [("advised", k) for k in range(M * n + 1)]
]
IDS = [f"{name}-M{M}-n{n}-k{k}" for name, M, n, k in CASES]


def _lists(computer, block, advice):
    """The input's query lists with their amplitudes, workspace cells dropped."""
    out = {}
    for (words, _ws), amp in computer.prequery_state(block, advice).amps.items():
        out[words] = out.get(words, 0) + amp
    return out


def _swept_inputs(M, n, k):
    """Every input whose other blocks share one prefix, padding all 0 or all 1.

    At M <= 2 that is every input; at M = 4 it keeps the sweep small while
    each block still sees every own prefix next to every other prefix.
    """
    q = k // M
    prefixes = [format(g, f"0{q}b") if q else "" for g in range(2**q)]
    pads = sorted({"0" * (k - M * q), "1" * (k - M * q)})
    return sorted(
        {
            (block, "".join(own if b == block else other for b in range(1, M + 1)) + pad)
            for block in range(1, M + 1)
            for own, other, pad in product(prefixes, prefixes, pads)
        }
    )


@pytest.mark.parametrize("name, M, n, k", CASES, ids=IDS)
def test_machine_matches_the_reference(name, M, n, k):
    comp, adv = get_subject(name, M, n, k)
    ref, ref_adv = _reference(name, M, n, k)
    assert comp.T == ref.T and comp.advice_len == ref.advice_len
    for inst in enumerate_instances(M, n):
        assert adv(inst) == ref_adv(inst)
    q = k // M
    thresholds = every_threshold(M, n)
    for block, advice in _swept_inputs(M, n, k):
        assert _lists(comp, block, advice) == _lists(ref, block, advice)
        # the workspace holds the advised prefix, the rest of the cells clear
        prefix = advice[(block - 1) * q : block * q]
        cells = {ws for _words, ws in comp.prequery_state(block, advice).amps}
        assert cells == {answer_to_outcome(prefix + "0" * (n - q))}
        for steps in thresholds:
            assert run(comp, block, advice, steps) == run(ref, block, advice, steps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zeta_matches_the_reference(n):
    for name, k in [("full", 0)] + [("advised", k) for k in range(n)]:
        comp, adv = get_subject(name, 1, n, k)
        ref, ref_adv = _reference(name, 1, n, k)
        part = partition_by_advice(comp, adv)
        assert part == partition_by_advice(ref, ref_adv)
        assert zeta(comp, part, Fraction(1, 3)) == zeta(ref, part, Fraction(1, 3))


@pytest.mark.parametrize("M, n", SHAPES)
def test_full_docs_equal_the_reference_byte_for_byte(M, n):
    built = json.dumps(export(*get_subject("full", M, n, 0)))
    assert built == json.dumps(export(*reference_full(M, n)))


@pytest.mark.parametrize("M, n, k, p", [(1, 3, 1, 3), (1, 3, 2, 2), (2, 2, 2, 1), (2, 2, 3, 2)])
def test_reference_format_advised_doc_gives_the_builtin_reports(tmp_path, M, n, k, p):
    # at 0 < k // M < n the reference doc keeps the prefix in the fibers,
    # not in the workspace, so it differs from the doc the builder exports
    path = tmp_path / "advised.json"
    path.write_text(json.dumps(export(*reference_advised(M, n, k))))
    cfg = ExperimentConfig(M=M, n=n, k=k, p=p, subject="advised")
    loaded = ExperimentConfig(M=M, n=n, k=k, p=p, subject=str(path))
    from_doc = [text.replace(str(path), "advised") for text in reports(loaded)]
    assert from_doc == reports(cfg)


def test_reference_machines_are_built_without_list_indices(monkeypatch):
    def refuse(*args):
        raise AssertionError("list_index called")

    monkeypatch.setattr(subjects, "list_index", refuse)
    for name, M, n, k in [("full", 1, 3, 0), ("full", 2, 2, 0), ("advised", 2, 2, 2)]:
        comp, _ = get_subject(name, M, n, k)
        assert comp.T == 2 ** (n - k // M) - 1
        assert cmd_simulate(ExperimentConfig(M=M, n=n, k=k, p=n, subject=name)).ok
    with pytest.raises(AssertionError, match="list_index called"):
        get_subject("shortcut", 1, 3, 1)
