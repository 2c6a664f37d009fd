import csv
import hashlib
import json
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ttquery import compression, harness, subjects
from ttquery.cli import main
from ttquery.harness import (
    ConfigError,
    ExperimentConfig,
    build_config,
    cmd_bounds,
    cmd_lemmas,
    cmd_roundtrip,
    cmd_simulate,
    parse_config,
    report_csv,
    report_json,
    resolve_subject,
)
from ttquery.model import advice_to_doc, computer_to_doc
from ttquery.ordered_search import enumerate_instances
from ttquery.subjects import get_subject


def test_parse_config_flat_keys():
    raw = parse_config("# comment\nM = 2\nn=3\nepsilon = 1/3\nsubject = full\n")
    assert raw == {"M": "2", "n": "3", "epsilon": "1/3", "subject": "full"}


def test_parse_config_rejects_unknown_and_duplicate():
    with pytest.raises(ConfigError):
        parse_config("wat = 1")
    with pytest.raises(ConfigError):
        parse_config("M = 1\nM = 2")
    with pytest.raises(ConfigError):
        parse_config("just text")


def test_build_config_coercion_and_overrides():
    cfg = build_config({"M": "2", "epsilon": "1/4", "blocks": "1,2"}, budget=99)
    assert cfg.M == 2
    assert cfg.epsilon == Fraction(1, 4)
    assert cfg.blocks == (1, 2)
    assert cfg.budget == 99


def test_build_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        build_config({"M": "two"})
    with pytest.raises(ConfigError):
        build_config({"epsilon": "one third"})
    with pytest.raises(ConfigError):
        build_config({"scheme": "triple"})
    with pytest.raises(ConfigError):
        build_config({"M": "0"})
    with pytest.raises(ConfigError):
        build_config({"n": "0"})


@pytest.mark.parametrize("blocks", ["1,1", "2,1,2"])
def test_simulate_refuses_a_repeated_block(tmp_path, capsys, blocks):
    # each repeated block would print its rows twice
    cfg = _write(tmp_path, f"subject = full\nM = 2\nn = 1\np = 1\nblocks = {blocks}\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: blocks must not repeat a block\n"


def test_resolve_subject_from_file(tmp_path):
    comp, adv = get_subject("advised", 1, 2, 1)
    insts = list(enumerate_instances(1, 2, 100))
    doc = {
        "computer": computer_to_doc(comp, [(1, "0"), (1, "1")]),
        "advice": advice_to_doc(adv, insts),
    }
    path = tmp_path / "subject.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig(M=1, n=2, k=1, subject=str(path))
    comp2, adv2 = resolve_subject(cfg)
    assert comp2.T == comp.T


def test_resolve_subject_shape_mismatch(tmp_path):
    comp, adv = get_subject("full", 1, 2, 0)
    doc = {
        "computer": computer_to_doc(comp, [(1, "")]),
        "advice": {"length": 0, "table": {}},
    }
    path = tmp_path / "subject.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig(M=2, n=2, subject=str(path))
    with pytest.raises(ConfigError):
        resolve_subject(cfg)


def test_simulate_report_worked_example():
    cfg = ExperimentConfig(M=1, n=2, p=2, subject="full")
    rep = cmd_simulate(cfg)
    assert rep.ok
    row = [r for r in rep.rows if r[0] == "M=1 n=2 steps=3"][0]
    assert row[2] == "10"
    assert row[3] == "10:1"
    assert rep.summary["max_error"] == "0"


def test_simulate_single_instance_and_blocks():
    cfg = ExperimentConfig(
        M=2, n=3, p=1, subject="full", instance="M=2 n=3 steps=3,7", blocks=(2,)
    )
    rep = cmd_simulate(cfg)
    assert len(rep.rows) == 1
    assert rep.rows[0][1] == "2"


def test_roundtrip_report_multi():
    cfg = ExperimentConfig(M=2, n=2, p=1, subject="full", l=1)
    rep = cmd_roundtrip(cfg)
    assert rep.ok
    assert rep.summary["roundtrips"] == "16/16"
    assert rep.summary["injective"] is True


def test_roundtrip_report_single_scheme():
    cfg = ExperimentConfig(M=1, n=4, k=1, subject="advised", scheme="single")
    rep = cmd_roundtrip(cfg)
    assert rep.ok
    assert rep.summary["roundtrips"] == "16/16"


@pytest.mark.parametrize("instance", [None, "M=2 n=2 steps=3,1"])
def test_roundtrip_enumerates_its_sweep_once(monkeypatch, instance):
    sweeps = []

    def counted(*args):
        sweeps.append(args)
        return enumerate_instances(*args)

    monkeypatch.setattr(harness, "enumerate_instances", counted)
    rep = cmd_roundtrip(ExperimentConfig(M=2, n=2, p=1, subject="full", instance=instance))
    assert rep.ok and len(rep.rows) == (16 if instance is None else 1)
    assert sweeps == [(2, 2, 4096)]


def test_bounds_report_values():
    cfg = ExperimentConfig(M=2, n=3, p=1, subject="full")
    rep = cmd_bounds(cfg)
    table = {(r[0], r[1]): r[2] for r in rep.rows}
    assert table[("reference-upper", "-")] == "7"
    assert table[("c-uv-good-branch", "1")] == "1/2048"
    assert table[("c-uv-bad-branch", "1")] == "1/4096"


BOUNDS_CASES = [
    ("full", 2, 3, 0, 1),
    ("full", 1, 4, 0, 2),
    ("advised", 2, 3, 2, 1),
    ("advised", 4, 2, 5, 2),
    ("zero", 2, 2, 0, 1),
    ("probe", 4, 2, 4, 1),
    ("shortcut", 1, 3, 1, 2),
]


@pytest.mark.parametrize("subject, M, n, k, p", BOUNDS_CASES)
def test_bounds_report_matches_the_one_from_a_built_subject(monkeypatch, subject, M, n, k, p):
    cfg = ExperimentConfig(M=M, n=n, k=k, p=p, subject=subject)
    rep = cmd_bounds(cfg)
    # the report as it reads with T taken from the built subject
    monkeypatch.setattr(harness, "query_count", lambda *args: get_subject(*args)[0].T)
    built = cmd_bounds(cfg)
    assert report_csv(rep) == report_csv(built)
    assert report_json(rep) == report_json(built)


def test_bounds_never_builds_a_builtin_subject(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("subject built for bounds")

    monkeypatch.setattr(subjects, "build_advised", refuse)
    cfg = _write(tmp_path, "subject = full\nM = 1\nn = 40\n")
    assert main(["bounds", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "subject-T,-,1099511627775,full\n" in out


def test_bounds_refuses_a_builtin_shape_like_the_builder(tmp_path, capsys):
    cfg = _write(tmp_path, "subject = shortcut\nM = 1\nn = 1\nk = 1\np = 1\n")
    assert main(["bounds", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: shortcut needs n >= 2\n"


def test_bounds_reference_upper_is_zero_past_Mn_advice_bits(tmp_path, capsys):
    # a zero doc re-labelled with k = 3 > M * n: the extra bits are padding
    comp, _ = get_subject("zero", 1, 2, 0)
    doc = computer_to_doc(comp, [(1, "")])
    row = doc["prequery"].pop("1|")
    doc["k"] = 3
    doc["prequery"] = {f"1|{a:03b}": row for a in range(8)}
    subject = tmp_path / "zero-k3.json"
    subject.write_text(json.dumps({"computer": doc, "advice": {"length": 3, "table": {}}}))
    cfg = _write(tmp_path, "M = 1\nn = 2\nk = 3\n")
    assert main(["bounds", "--config", cfg, "--subject", str(subject)]) == 0
    out = capsys.readouterr().out
    assert "reference-upper,-,0,queries of the advised reference machine\n" in out
    assert '"reference_upper": 0,' in out


def test_bounds_adversary_floor_is_zero_past_n_advice_bits(tmp_path, capsys):
    # the selected advice class holds at least one step, never N / 2^k < 1
    cfg = _write(tmp_path, "subject = advised\nM = 2\nn = 2\nk = 3\n")
    assert main(["bounds", "--config", cfg]) == 0
    assert "adversary-floor,-,0,\"about 0.0000000000, within 1e-9\"\n" in capsys.readouterr().out


def test_bounds_refuses_an_M_past_the_budget_before_reading_the_subject(
    tmp_path, capsys, monkeypatch
):
    def refuse(*args):
        raise AssertionError("subject read for bounds past the budget")

    cfg = _write(tmp_path, "subject = full\nM = 4\nn = 1\n")
    with monkeypatch.context() as m:
        m.setattr(harness, "query_count", refuse)
        assert main(["bounds", "--config", cfg, "--budget", "3"]) == 2
    assert capsys.readouterr() == (
        "", "error: bounds rows for l = 1..M at M=4 exceed budget 3\n"
    )
    # at M = budget every l still gets its two rows
    assert main(["bounds", "--config", cfg, "--budget", "4"]) == 0
    rows = [line.split(",")[:2] for line in capsys.readouterr().out.splitlines()]
    assert [row for row in rows if row[0].startswith("c-uv-")] == [
        [name, str(l)] for l in range(1, 5) for name in ("c-uv-good-branch", "c-uv-bad-branch")
    ]


def test_lemmas_report_all_pass():
    cfg = ExperimentConfig(M=2, n=2, p=1, subject="probe", k=2, l=2)
    rep = cmd_lemmas(cfg)
    assert rep.ok
    assert rep.summary["failed"] == 0


def test_reports_are_deterministic():
    cfg = ExperimentConfig(M=2, n=2, p=1, subject="full")
    a, b = cmd_roundtrip(cfg), cmd_roundtrip(cfg)
    assert report_csv(a) == report_csv(b)
    assert report_json(a) == report_json(b)


def test_budget_refusal_is_config_error():
    cfg = ExperimentConfig(M=2, n=3, subject="full", budget=10)
    from ttquery.ordered_search import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        cmd_simulate(cfg)


# ------------------------------------------------------------------ the CLI


def _write(tmp_path, text):
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    return str(path)


def test_cli_exit_zero_and_files(tmp_path):
    cfg = _write(tmp_path, "M = 2\nn = 2\np = 1\nsubject = full\n")
    out = tmp_path / "out"
    assert main(["roundtrip", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "roundtrip.csv").read_text().splitlines()
    assert rows[0] == "instance,case,length,hex,items,status"
    assert len(rows) == 17
    doc = json.loads((out / "roundtrip.json").read_text())
    assert doc["ok"] is True


def test_cli_one_instance_single_scheme_censuses_the_sweep(tmp_path):
    # step 8 roundtrips; its own 3-bit code is short, but the sweep's
    # census has 13 codes of at least Mn bits, so the run passes
    sweep = "M = 1\nn = 4\nk = 1\np = 1\nsubject = shortcut\nscheme = single\n"
    out = tmp_path / "one"
    cfg = _write(tmp_path, sweep + "instance = M=1 n=4 steps=8\n")
    assert main(["roundtrip", "--config", cfg, "--out", str(out)]) == 0
    one = json.loads((out / "roundtrip.json").read_text())
    assert one["ok"] is True
    assert one["summary"]["roundtrips"] == "1/1"
    assert one["summary"]["codes_at_least_Mn"] == 13
    whole = cmd_roundtrip(build_config(parse_config(sweep)))
    census_fields = ("injective", "max_length", "codes_at_least_Mn")
    assert {f: one["summary"][f] for f in census_fields} == {
        f: whole.summary[f] for f in census_fields
    }


def test_cli_exit_two_on_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path, "bogus = 1\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["M=1 n=2 steps=3 bogus=1", "M=2 M=1 n=2 steps=3"])
@pytest.mark.parametrize("command", ["simulate", "roundtrip", "lemmas"])
def test_cli_exit_two_on_instance_literal_with_bad_keys(tmp_path, capsys, command, literal):
    cfg = _write(tmp_path, f"subject = full\nM = 1\nn = 2\np = 1\ninstance = {literal}\n")
    assert main([command, "--config", cfg]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and out.err.count("\n") == 1


def test_cli_exit_two_on_budget(tmp_path, capsys):
    cfg = _write(tmp_path, "M = 2\nn = 3\nsubject = full\n")
    assert main(["simulate", "--config", cfg, "--budget", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", ""),
        ("lemmas", ""),
        ("roundtrip", ""),
        ("roundtrip", "scheme = single\n"),
        ("roundtrip", "instance = M=1 n=18 steps=5\n"),
    ],
)
def test_cli_refuses_over_budget_sweep_before_building_subject(
    tmp_path, capsys, monkeypatch, command, extra
):
    # 2^18 instances against the default budget of 4096; the run must stop
    # before the subject is built (full n=18 takes over a minute)
    def refuse(cfg):
        raise AssertionError("subject built before the budget check")

    monkeypatch.setattr(harness, "resolve_subject", refuse)
    cfg = _write(tmp_path, "subject = full\nM = 1\nn = 18\n" + extra)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exceed budget 4096" in err


def test_one_instance_simulate_has_no_budget(tmp_path, capsys):
    cfg = _write(tmp_path, "subject = zero\nM = 2\nn = 7\ninstance = M=2 n=7 steps=1,1\n")
    assert main(["simulate", "--config", cfg, "--budget", "5"]) == 0
    assert capsys.readouterr().out.startswith("instance,block,")


def _zero_doc_path(tmp_path, **header):
    comp, adv = get_subject("zero", 1, 2, 0)
    doc = {
        "computer": {**computer_to_doc(comp, [(1, "")]), **header},
        "advice": advice_to_doc(adv, enumerate_instances(1, 2)),
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("p", [3, 10**8])
def test_cli_doc_output_wider_than_n_names_p(tmp_path, capsys, p):
    cfg = _write(tmp_path, "M = 1\nn = 2\np = 1\n")
    subject = _zero_doc_path(tmp_path, p=p)
    assert main(["simulate", "--config", cfg, "--subject", subject]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"p must be at most n = 2, not {p}" in err


@pytest.mark.parametrize("header", [{"M": 2}, {"n": 3}, {"k": 1}])
def test_resolve_subject_compares_shape_before_loading(tmp_path, monkeypatch, header):
    def refuse(doc):
        raise AssertionError("computer loaded before its shape was compared")

    monkeypatch.setattr(harness, "computer_from_doc", refuse)
    cfg = ExperimentConfig(M=1, n=2, subject=_zero_doc_path(tmp_path, p=10**8, **header))
    with pytest.raises(ConfigError, match="disagrees with the configured"):
        resolve_subject(cfg)


def test_cli_exit_one_on_check_failure(tmp_path, capsys):
    # the blind guesser misses most instances at any width
    cfg = _write(tmp_path, "M = 1\nn = 2\np = 1\nsubject = zero\n")
    assert main(["simulate", "--config", cfg]) == 1
    capsys.readouterr()


def test_cli_subject_override(tmp_path, capsys):
    cfg = _write(tmp_path, "M = 1\nn = 2\np = 2\nsubject = zero\n")
    assert main(["simulate", "--config", cfg, "--subject", "full"]) == 0
    out = capsys.readouterr().out
    assert '"subject": "full"' in out


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def _cli_subprocess(*args, **run_options):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "ttquery.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        **run_options,
    )


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def test_simulate_refuses_a_huge_M_within_one_gigabyte(tmp_path):
    # the default blocks stay a range, so M = 10^9 reaches the budget check
    # without first building a tuple of 10^9 block numbers
    cfg = _write(tmp_path, "subject = full\nM = 1000000000\nn = 1\n")
    done = _cli_subprocess("simulate", "--config", cfg, preexec_fn=_one_gigabyte_address_space)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        "error: 2^1000000000 instances at M=1000000000, n=1 exceed budget 4096\n"
    )


def _broken_full_doc(tmp_path, amp=None, location=None):
    """A full M=1 n=2 subject doc with every amplitude or location replaced."""
    comp, adv = get_subject("full", 1, 2, 0)
    doc = {
        "computer": computer_to_doc(comp, [(1, "")]),
        "advice": advice_to_doc(adv, list(enumerate_instances(1, 2, 100))),
    }
    for rows in doc["computer"]["prequery"].values():
        for row in rows:
            if amp is not None:
                row[0] = amp
            if location is not None:
                for word in row[1]:
                    word[1] = location
    path = tmp_path / "subject.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _broken_probe_doc(tmp_path, edit):
    """A probe M=2 n=2 k=2 subject doc, changed in place by edit."""
    comp, adv = get_subject("probe", 2, 2, 2)
    inputs = [(block, format(a, "02b")) for block in (1, 2) for a in range(4)]
    doc = {
        "computer": computer_to_doc(comp, inputs),
        "advice": advice_to_doc(adv, list(enumerate_instances(2, 2, 100))),
    }
    edit(doc)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _deep_json(tmp_path, depth=1100):
    """A subject file of arrays nested past the interpreter's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    return str(path)


_PROBE_LAST = "M=2 n=2 steps=4,4"
_PROBE = "M = 2\nn = 2\nk = 2\np = 1\nsubject = "
_BROKEN_SUBJECTS = {
    "@unit": lambda tmp: _broken_full_doc(tmp, amp="2"),
    "@location": lambda tmp: _broken_full_doc(tmp, location="0110"),
    "@no-advice": lambda tmp: _broken_probe_doc(
        tmp, lambda doc: doc["advice"]["table"].pop(_PROBE_LAST)
    ),
    "@bad-advice": lambda tmp: _broken_probe_doc(
        tmp, lambda doc: doc["advice"]["table"].update({_PROBE_LAST: "2x"})
    ),
    "@dense-final": lambda tmp: _broken_probe_doc(
        tmp, lambda doc: doc["computer"].update(final=[[1, 0], [0, 1]])
    ),
    "@list-prequery": lambda tmp: _broken_probe_doc(
        tmp, lambda doc: doc["computer"].update(prequery=[])
    ),
    "@deep-json": _deep_json,
}


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", "M = 0\nn = 2\n"),
        ("bounds", "M = 0\nn = 2\n"),
        ("simulate", "M = 1\nn = 0\n"),
        ("simulate", "M = 1\nn = 2\np = 2\nsubject = @unit\n"),
        ("roundtrip", "M = 1\nn = 2\np = 2\nsubject = @location\n"),
        ("simulate", _PROBE + "@no-advice\n"),
        ("roundtrip", _PROBE + "@no-advice\n"),
        ("simulate", _PROBE + "@bad-advice\n"),
        ("simulate", _PROBE + "@dense-final\n"),
        ("simulate", _PROBE + "@list-prequery\n"),
        # bounds loads a JSON subject in full, so a malformed one is refused
        ("bounds", "M = 1\nn = 2\np = 2\nsubject = @unit\n"),
        ("bounds", _PROBE + "@dense-final\n"),
        ("simulate", "M = 1\nn = 2\nsubject = @deep-json\n"),
        ("bounds", "M = 1\nn = 2\nsubject = @deep-json\n"),
        ("roundtrip", "M = 2\nn = 2\nk = 2\np = 2\nsubject = probe\n"),
        ("lemmas", "M = 2\nn = 2\nk = 2\np = 2\nsubject = probe\n"),
        ("roundtrip", "M = 1\nn = 3\nk = 1\nsubject = probe\nscheme = single\n"),
    ],
)
def test_cli_bad_input_exits_two_without_traceback(tmp_path, command, text):
    for mark, build in _BROKEN_SUBJECTS.items():
        if mark in text:
            text = text.replace(mark, build(tmp_path))
    done = _cli_subprocess(command, "--config", _write(tmp_path, text))
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert done.stdout == ""


@pytest.mark.parametrize("command", ["bounds", "roundtrip", "lemmas", "simulate"])
@pytest.mark.parametrize("epsilon", ["1/2", "3/4", "2"])
def test_epsilon_from_half_up_names_the_bound(tmp_path, capsys, command, epsilon):
    cfg = _write(tmp_path, f"M = 1\nn = 2\nepsilon = {epsilon}\n")
    assert main([command, "--config", cfg]) == 2
    assert "epsilon must be below 1/2" in capsys.readouterr().err


_PAST_THE_DIGIT_LIMIT = (
    "subject file is malformed: prequery input (1, ''): amplitude '111111111111...' "
    "(5000 characters) has a part past Python's integer digit limit"
)


@pytest.mark.parametrize("command", ["bounds", "roundtrip", "lemmas", "simulate"])
@pytest.mark.parametrize(
    "line, message",
    [
        *(
            pytest.param(
                f"{key} = {value}", f"{key} must be a rational like 1/3", id=f"{key}={value}"
            )
            for key in ("epsilon", "c")
            for value in ("1e-99999999", "1e-5000", "0.25", "1e3")
        ),
        pytest.param("subject = @long-amplitude", _PAST_THE_DIGIT_LIMIT, id="5000-digit-amplitude"),
    ],
)
def test_a_rational_outside_the_grammar_exits_two_at_once(tmp_path, capsys, command, line, message):
    # refused before any exact arithmetic, so an exponent builds no huge denominator
    line = line.replace("@long-amplitude", _broken_full_doc(tmp_path, amp="1" * 5000))
    cfg = _write(tmp_path, f"M = 1\nn = 2\np = 2\n{line}\n")
    start = time.perf_counter()
    assert main([command, "--config", cfg]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _long_probability_doc(tmp_path):
    """full M=1 n=2 with its one query list split over workspace cells 0
    and 1 by the unit vector (u^2 - v^2, 2uv) / (u^2 + v^2), u = 10^1500 + 7
    and v = 10^1499 + 3: every amplitude part has about 3,000 digits, and
    every probability part about 6,000, past Python's 4,300-digit limit."""
    path = Path(_broken_full_doc(tmp_path))
    doc = json.loads(path.read_text())
    (rows,) = doc["computer"]["prequery"].values()
    ((_, words, _),) = rows
    u, v = 10**1500 + 7, 10**1499 + 3
    norm = u * u + v * v
    rows[:] = [[f"{u * u - v * v}/{norm}", words, 0], [f"{2 * u * v}/{norm}", words, 1]]
    path.write_text(json.dumps(doc))
    return str(path)


def test_simulate_refuses_a_probability_too_long_to_print(tmp_path, capsys):
    cfg = _write(tmp_path, f"M = 1\nn = 2\np = 2\nsubject = {_long_probability_doc(tmp_path)}\n")
    assert main(["simulate", "--config", cfg]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: a probability at M=1 n=2 steps=1, block 1 is too long to print: ")
    # roundtrip and lemmas print no probability
    for command in ("roundtrip", "lemmas"):
        assert main([command, "--config", cfg]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["bounds", "roundtrip", "lemmas", "simulate"])
def test_negative_epsilon_is_refused(tmp_path, capsys, command):
    # full M=1 n=3 p=3 would otherwise fail all 8 simulate rows with exit 1
    cfg = _write(tmp_path, "subject = full\nM = 1\nn = 3\np = 3\nepsilon = -1/3\n")
    assert main([command, "--config", cfg]) == 2
    assert "epsilon must be nonnegative" in capsys.readouterr().err


# ------------------------------------------- bounds past float range and digits


def _bounds_rows(stdout):
    return list(csv.reader(stdout.split("{", 1)[0].splitlines()[1:]))


def test_bounds_notes_are_floats_while_the_values_fit_one(tmp_path):
    # the last n at which both floors fit a float: the report is the one
    # earlier versions printed, byte for byte
    done = _cli_subprocess("bounds", "--config", _write(tmp_path, "subject = full\nM = 1\nn = 1028\n"))
    assert done.returncode == 0 and done.stderr == ""
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "510e5f55ceb048f192425a5afd6c809baa47aec616cf900f605ad90e28eee2a8"
    )
    rows = {row[0]: row for row in _bounds_rows(done.stdout)}
    single = Fraction(rows["single-block-floor"][2])
    assert rows["single-block-floor"][3] == f"about {float(single):.10f}"


@pytest.mark.parametrize("n", [1029, 1100])
def test_bounds_past_float_range_prints_every_row(tmp_path, n):
    done = _cli_subprocess("bounds", "--config", _write(tmp_path, f"subject = full\nM = 1\nn = {n}\n"))
    assert done.returncode == 0 and done.stderr == ""
    rows = _bounds_rows(done.stdout)
    assert [row[0] for row in rows] == [
        "reference-upper",
        "subject-T",
        "single-block-floor",
        "adversary-floor",
        "c-uv-good-branch",
        "c-uv-bad-branch",
    ]
    assert rows[0][2] == rows[1][2] == str(2**n - 1)
    adv = Fraction(rows[3][2])
    # eleven significant digits of the exact value, past float range
    about = re.fullmatch(r"about (\d\.\d{10})e\+(\d+), within 1e-9", rows[3][3])
    mantissa, exponent = Fraction(about[1]), int(about[2])
    assert exponent >= 308 and abs(mantissa * 10**exponent - adv) <= adv / 10**10


@pytest.mark.parametrize(
    "n, row",
    [(14284, "adversary-floor"), (14285, "reference-upper"), (20000, "reference-upper")],
)
def test_bounds_past_the_digit_limit_exits_two(tmp_path, n, row):
    done = _cli_subprocess("bounds", "--config", _write(tmp_path, f"subject = full\nM = 1\nn = {n}\n"))
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error: {row} is too long to print: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


def test_config_that_is_not_utf8_exits_two(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"subject = full\nM = 1\nn = 2\n# caf\xe9\n\xff\n")
    for command in ("simulate", "bounds"):
        done = _cli_subprocess(command, "--config", str(path))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(f"error: config {path} is not UTF-8 text: ")
        assert done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("subject = full\nM = 2\nn = 2\n", "the single scheme needs M = 1"),
        ("subject = advised\nM = 1\nn = 2\nk = 2\n", "the single scheme needs k + 1 <= n"),
        (
            "subject = probe\nM = 1\nn = 3\nk = 1\n",
            "the single scheme reads k + 1 cells, more than the subject writes",
        ),
    ],
)
def test_single_scheme_preconditions_name_the_scheme(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, text + "scheme = single\n")
    assert main(["roundtrip", "--config", cfg]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_single_roundtrip_checks_its_shape_once_before_the_error_parameters(
    tmp_path, capsys, monkeypatch
):
    checked, check = [], compression._single_check

    def counted(computer):
        checked.append(computer)
        return check(computer)

    for module in (harness, compression):
        monkeypatch.setattr(module, "_single_check", counted)
    rep = cmd_roundtrip(ExperimentConfig(M=1, n=4, k=1, subject="shortcut", scheme="single"))
    assert rep.ok and len(checked) == 1
    text = "subject = advised\nM = 1\nn = 2\nk = 2\nepsilon = 2\nscheme = single\n"
    assert main(["roundtrip", "--config", _write(tmp_path, text)]) == 2
    assert capsys.readouterr() == ("", "error: the single scheme needs k + 1 <= n\n")
