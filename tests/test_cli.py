"""The hand-written command line parser against argparse.

`cli.parse_args` replaced an argparse parser. That parser is kept here as
the reference, and both read a generated set of argument vectors: every
vector argparse accepts must give the same command and options, every
vector it refuses must exit 2, and a help request must exit 0.
"""

import argparse
import contextlib
import io
import itertools
import random

import pytest

from ttquery import cli
from ttquery.harness import COMMANDS


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command line used before `cli.parse_args`."""
    parser = argparse.ArgumentParser(
        prog="ttquery",
        description="Exact simulation and coding experiments for advised "
        "nonadaptive query machines on ordered search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "print exact output distributions and per-block errors",
        "roundtrip": "encode and decode every instance, census the code",
        "bounds": "tabulate query floors and certifying constants",
        "lemmas": "rerun the per-instance invariant audits",
    }
    for name, text in helps.items():
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--config", metavar="PATH", help="key = value file")
        sp.add_argument("--out", metavar="DIR", help="write CSV and JSON here instead of stdout")
        sp.add_argument("--subject", metavar="NAME_OR_PATH", help="override the subject")
        sp.add_argument("--budget", type=int, metavar="COUNT", help="instance sweep cap")
    return parser


_COMMANDS = ["simulate", "roundtrip", "bounds", "lemmas", "nosuch"]
_TAKING_VALUES = [
    "--config", "--conf", "--c", "--out", "--o", "--subject", "--s", "--budget", "--b",
]
_OPTIONS = _TAKING_VALUES + ["--help", "--he", "-h", "--bogus", "-x"]
_ASSIGNED = [
    "--config=a.cfg", "--c=", "--out=d", "--subject=probe", "--sub=x y", "--budget=7",
    "--budget=-1", "--b=x", "--help=", "--bogus=1", "--bogus=a b",
]
_VALUES = ["a.cfg", "b.cfg", "7", "-1", "-2.5", "-.5", "x", "-a b", "-", "", " 3", "1_0"]
_TOKENS = _COMMANDS + _OPTIONS + _ASSIGNED + _VALUES
_FIELDS = ("config", "out", "subject", "budget")


def _vectors():
    """Every vector of up to two tokens, every command followed by each
    option and value pair, and a seeded sample of longer vectors: most of
    them a command and up to four groups, a group being an option and a
    value, an `=` option, or any one token."""
    vectors = [list(v) for size in range(3) for v in itertools.product(_TOKENS, repeat=size)]
    vectors += [
        [command, option, value]
        for command in _COMMANDS[:-1]
        for option in _OPTIONS
        for value in _VALUES
    ]
    rng = random.Random(19)
    groups = (
        lambda: [rng.choice(_TAKING_VALUES), rng.choice(_VALUES)],
        lambda: [rng.choice(_ASSIGNED)],
        lambda: [rng.choice(_TOKENS)],
    )
    for _ in range(4000):
        vector = [rng.choice(_COMMANDS)] if rng.random() < 0.8 else []
        for _ in range(rng.randint(1, 4)):
            vector += rng.choices(groups, weights=(6, 3, 1))[0]()
        vectors.append(vector)
    return vectors


def _outcome(parse, argv):
    """("exit", code) or (command, config, out, subject, budget)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parse(argv)
    except SystemExit as e:
        return ("exit", e.code)


def _by_argparse(parser):
    def parse(argv):
        ns = parser.parse_args(argv)
        return (ns.command, *(getattr(ns, name) for name in _FIELDS))

    return parse


def _by_cli(argv):
    command, options = cli.parse_args(argv)
    return (command, *(options.get(name) for name in _FIELDS))


def test_parse_args_agrees_with_argparse():
    reference = _by_argparse(_reference_parser())
    seen = {"accepted": 0, "help": 0, "refused": 0}
    commands, values = set(), set()
    for argv in _vectors():
        expected = _outcome(reference, argv)
        assert _outcome(_by_cli, argv) == expected, argv
        if expected == ("exit", 0):
            seen["help"] += 1
        elif expected[0] == "exit":
            assert expected == ("exit", 2), argv
            seen["refused"] += 1
        else:
            seen["accepted"] += 1
            commands.add(expected[0])
            values.update(zip(_FIELDS, expected[1:]))
    # the set reaches every outcome, every command and every option
    assert min(seen.values()) >= 300, seen
    assert commands == set(COMMANDS)
    assert {("budget", -1), ("budget", 10), ("config", "-a b"), ("subject", "x y")} <= values
    for field in _FIELDS:
        assert any(f == field and v is not None for f, v in values), field


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["nosuch"],
        ["simulate", "--bogus"],
        ["--config", "a.cfg", "simulate"],
        ["simulate", "stray"],
        ["simulate", "--config"],
        ["simulate", "--out", "--budget", "3"],
        ["simulate", "--config", "-x"],
        ["simulate", "--budget", "many"],
        ["simulate", "--help=yes"],
    ],
)
def test_usage_errors_print_usage_and_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 2, err
    assert lines[0] == cli.USAGE and lines[1].startswith("ttquery: error: ")


def test_negative_budget_reaches_the_config_check(capsys):
    assert cli.main(["bounds", "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: budget must be nonnegative\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["simulate", "--he"], ["--bogus", "-h"]])
def test_help_names_every_command_and_option_and_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(cli.USAGE + "\n")
    for name in COMMANDS:
        assert f"\n  {name} " in out
    for name in (*cli.OPTIONS, "help"):
        assert f"--{name}" in out
