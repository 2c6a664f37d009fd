"""Fuzz the command line over config text.

Whatever a config file says, every command must finish with exit 0 or 1
and nothing on stderr, or refuse it with exit 2 and exactly one `error:`
line; no exception may escape `cli.main`. Sizes stay at M <= 4 and n <= 3
and the sweep budget stays small, so each case runs in milliseconds.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from ttquery.cli import main
from ttquery.subjects import REGISTRY


def _mostly(valid, invalid):
    """Values that are usually valid; one branch in five draws a bad one."""
    if not isinstance(valid, st.SearchStrategy):
        valid = st.sampled_from(valid)
    return st.one_of(valid, valid, valid, valid, st.sampled_from(invalid))


_VALUES = {
    "M": _mostly(st.integers(1, 4).map(str), ["0", "-1", "x"]),
    "n": _mostly(st.integers(1, 3).map(str), ["0", "-2"]),
    "p": _mostly(st.integers(1, 3).map(str), ["0", "4"]),
    "k": _mostly(st.integers(0, 4).map(str), ["-1", "9"]),
    "l": _mostly(st.integers(1, 4).map(str), ["0", "5"]),
    "epsilon": _mostly(["0", "1/3", "1/4", "2/7"], ["1/2", "-1/5", "1/0", "x"]),
    "c": _mostly(["1/8", "1/2", "1/16"], ["0", "3", "x"]),
    "subject": _mostly(list(REGISTRY), ["neighbor_probe", "no-such-file.json"]),
    "scheme": _mostly(["multi", "single"], ["both"]),
    "budget": _mostly(["256"], ["-1", "0", "7"]),
    "instance": st.sampled_from(
        ["M=1", "steps=1", "M=1 n=2 steps=x", "M=2 n=1 steps=1", "garbage"]
    ),
    "blocks": _mostly(["1", "2", "1,2"], ["0", "5", "1,x", ""]),
}
_EXTRA_LINES = _mostly(["", "# comment"], ["no equals sign", "wat = 1", "M = 2"])


@st.composite
def _config_text(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True, max_size=6))
    values = {key: draw(_VALUES[key]) for key in keys}
    values.setdefault("budget", "256")
    M, n = values.get("M", "1"), values.get("n", "3")
    if "instance" in values and M.isdigit() and n.isdigit() and draw(st.booleans()):
        # a literal of the configured shape, its steps possibly out of range
        size = int(M)
        steps = draw(st.lists(st.integers(0, 2 ** int(n) + 1), min_size=size, max_size=size))
        values["instance"] = f"M={M} n={n} steps={','.join(map(str, steps))}"
    lines = [f"{key} = {value}" for key, value in values.items()]
    lines += draw(st.lists(_EXTRA_LINES, max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["simulate", "roundtrip", "bounds", "lemmas"]),
    text=_config_text(),
)
def test_cli_config_fuzz_honours_exit_codes(tmp_path_factory, command, text):
    path = tmp_path_factory.mktemp("fuzz") / "cfg.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path)])
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), (text, lines)
    else:
        assert code in (0, 1), (text, code)
        assert lines == [], (text, lines)
