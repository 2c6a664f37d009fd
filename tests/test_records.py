"""The package's records and what importing the package and its command line loads.

Records are plain classes or typing.NamedTuples, so importing ttquery.cli
generates no code and does not load dataclasses; the command line is
parsed without argparse, so a run loads neither it nor gettext and
locale; importing the package root loads no submodule at all. These
tests pin what callers rely on: how instances and encodings compare, hash and print,
which errors the validating constructors raise, that the parameter records
are built by keyword, and the configuration defaults.
"""

import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import ttquery
from ttquery.compression import DEFAULT_PARAMS, Encoding, EncodingContext, ErrorParams
from ttquery.harness import ExperimentConfig, build_config
from ttquery.ordered_search import StepInstance

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ttquery.__file__)))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site-packages and their start-up hooks out of the check
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from ttquery import cli, harness; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "[]\n", done.stdout


def test_cli_run_loads_neither_argparse_nor_gettext_nor_locale():
    # argparse's gettext and locale lookups cost about 4 ms per process
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "from ttquery import cli; "
        "status = cli.main(['bounds']); "
        "print(status, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []", done.stdout


def test_package_import_loads_no_submodule_and_states_the_version():
    # the package root re-exports nothing: names come from their modules
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ttquery; "
        "print(sorted(m for m in sys.modules if m.startswith('ttquery.'))); "
        "print(ttquery.__version__)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, SRC],
        capture_output=True,
        text=True,
        check=True,
    )
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
        version = re.search(r'^version = "([^"]+)"$', fh.read(), re.M).group(1)
    assert done.stdout == f"[]\n{version}\n", done.stdout


# ---------------------------------------------------------------- instances


def test_step_instance_equality_hash_and_repr():
    inst = StepInstance(2, 3, (3, 6))
    same = StepInstance(M=2, n=3, steps=[3, 6])
    assert inst == same and hash(inst) == hash(same)
    assert same.steps == (3, 6) and same.names == ("010", "101")
    assert len({inst, same, StepInstance(2, 3, (6, 3))}) == 2
    for other in (StepInstance(2, 3, (3, 7)), StepInstance(2, 4, (3, 6)), StepInstance(1, 3, (3,))):
        assert inst != other
    # an instance is not a tuple of its fields
    assert inst != (2, 3, (3, 6)) and (2, 3, (3, 6)) != inst
    assert repr(inst) == "StepInstance(M=2, n=3, steps=(3, 6))"


def test_step_instance_validation_errors():
    cases = (
        ((0, 3, ()), "need M >= 1 and n >= 1"),
        ((1, 0, (1,)), "need M >= 1 and n >= 1"),
        ((1, 2, (2.7,)), r"steps must be integers, got \(2.7,\)"),
        ((1, 2, 3), "steps must be integers, got 3"),
        ((2, 2, (1,)), "expected 2 steps, got 1"),
        ((1, 2, (5,)), r"step 5 outside 1..4"),
        ((1, 2, (0,)), r"step 0 outside 1..4"),
    )
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            StepInstance(*args)


# ---------------------------------------------------------------- encodings


def test_encoding_equality_and_hash():
    items = (("a", 0, 2), ("b", 2, 2))
    enc = Encoding(1, "0110", items)
    same = Encoding(case=1, bits="0110", items=items)
    assert enc == same and hash(enc) == hash(same)
    assert enc != Encoding(2, "0110", items)
    assert enc != Encoding(1, "0111", items)
    assert enc != Encoding(1, "0110", (("a", 0, 4),))
    assert enc != (1, "0110", items)
    assert (enc.case, enc.bits, enc.items, len(enc)) == (1, "0110", items, 4)


def test_encoding_validation_errors():
    cases = (
        ((3, "01", (("a", 0, 2),)), "case must be 1 or 2"),
        ((1, "0120", (("a", 0, 4),)), "bits must be a 0/1 string"),
        ((1, "0110", (("a", 0, 2), ("b", 3, 1))), "item b breaks the contiguous layout"),
        ((1, "0110", (("a", 0, 5), ("b", 5, -1))), "item b breaks the contiguous layout"),
        ((1, "0110", (("a", 0, 2),)), "items do not cover the bit string"),
    )
    for args, message in cases:
        with pytest.raises(ValueError, match=message):
            Encoding(*args)


# ---------------------------------------------------------------- parameters


def test_error_params_by_keyword():
    params = ErrorParams(epsilon="1/3", c=Fraction(1, 8))
    assert (params.epsilon, params.c) == (Fraction(1, 3), Fraction(1, 8))
    assert type(params.epsilon) is Fraction and type(params.c) is Fraction
    assert params.C == DEFAULT_PARAMS.C and vars(params) == vars(DEFAULT_PARAMS)
    with pytest.raises(ValueError, match="c must lie strictly between 0 and 1/2"):
        ErrorParams(epsilon=Fraction(1, 3), c=Fraction(1, 2))
    with pytest.raises(ValueError):
        ErrorParams(epsilon=Fraction(1, 2), c=Fraction(1, 8))


def test_encoding_context_by_keyword():
    ctx = EncodingContext(M=2, n=3, p=1, k=2, T=1, l=1)
    assert (ctx.M, ctx.n, ctx.p, ctx.k, ctx.T, ctx.l) == (2, 3, 1, 2, 1, 1)
    assert not hasattr(ctx, "params") and ctx.C == DEFAULT_PARAMS.C
    assert (ctx.t, ctx.width_k, ctx.rank_limit) == (256, 8, 256)
    assert ctx.distance_bound == 4 * DEFAULT_PARAMS.C
    cert = ErrorParams(Fraction(0), Fraction(1, 2))
    assert cert.C != DEFAULT_PARAMS.C
    assert EncodingContext(M=1, n=2, p=2, k=0, T=0, l=1, params=cert).C == cert.C
    cases = (
        (dict(M=0), "M must be positive"),
        (dict(n=0, p=0), "n must be positive"),
        (dict(p=4), r"p must lie in \[1, n\]"),
        (dict(k=-1), "k must be nonnegative"),
        (dict(T=-1), "T must be nonnegative"),
        (dict(l=3), r"l must lie in \[1, M\]"),
    )
    for changed, message in cases:
        kwargs = {**dict(M=2, n=3, p=1, k=2, T=1, l=1), **changed}
        with pytest.raises(ValueError, match=message):
            EncodingContext(**kwargs)


# ---------------------------------------------------------------- configuration


def test_experiment_config_defaults():
    cfg = ExperimentConfig()
    assert cfg._asdict() == {
        "M": 1,
        "n": 3,
        "p": 1,
        "k": 0,
        "epsilon": Fraction(1, 3),
        "c": Fraction(1, 8),
        "l": 1,
        "subject": "full",
        "scheme": "multi",
        "budget": 4096,
        "instance": None,
        "blocks": None,
        "out": None,
    }
    assert build_config({}) == cfg
    assert build_config({"M": "2"}, subject="probe", budget=None) == cfg._replace(
        M=2, subject="probe"
    )
