"""Fuzz the command line over config text and subject documents.

Whatever a config file or a subject document says, every command must
finish with exit 0 or 1 and nothing on stderr, or refuse it with exit 2 and
exactly one `error:` line; no exception may escape `cli.main`. Sizes stay
at M <= 4 and n <= 3 and the sweep budget stays small, so each case runs in
milliseconds.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttquery.cli import main
from ttquery.model import ModelError, QueryWord, advice_to_doc, computer_to_doc
from ttquery.ordered_search import enumerate_instances
from ttquery.statevec import rational_str
from ttquery.subjects import REGISTRY, get_subject


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
        [
            "M=1",
            "steps=1",
            "M=1 n=2 steps=x",
            "M=2 n=1 steps=1",
            "garbage",
            "M=1 n=2 steps=3 bogus=1",
            "M=2 M=1 n=2 steps=3",
        ]
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


# ---------------------------------------------------------------------------
# Subject documents

_DOC_CONFIG = "subject = shortcut\nM = 1\nn = 3\nk = 1\np = 2\nl = 1\nbudget = 256\n"


def _exported_doc():
    comp, adv = get_subject("shortcut", 1, 3, 1)
    return {
        "computer": computer_to_doc(comp, [(1, "0"), (1, "1")]),
        "advice": advice_to_doc(adv, enumerate_instances(1, 3)),
    }


_DOC = _exported_doc()


def _paths(node, path=()):
    """Every position in a JSON tree, as a tuple of keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_DOC_PATHS = sorted(_paths(_DOC), key=repr)
# odd JSON values: bools, floats, out-of-range ints (10**8 among them: a
# header is checked before anything is sized from it), bad rationals, wrong
# containers, strings that look like bits
_ODD_VALUES = [
    *(True, False, None, 0.0, 3.5, -1, 0, 1, 2, 7, 1000, 10**8),
    *("1/0", "0/0", "-1/2", "1/2", "0.5", "x", "", "01", "011", "1|0"),
    *([], {}, [1], [[1, "000"]]),
]


def _mutate(doc, path, op, value):
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    if op == "delete":
        if isinstance(node, dict):
            del node[last]
        else:
            node.pop(last)
    elif op == "duplicate" and isinstance(node, list):
        node.insert(last, copy.deepcopy(node[last]))
    else:
        node[last] = value


def _run_doc(tmp_dir, doc, command):
    """Run command on the doc, given as a JSON tree or as JSON text."""
    subject = tmp_dir / "subject.json"
    subject.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    cfg = tmp_dir / "cfg.txt"
    cfg.write_text(_DOC_CONFIG)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--subject", str(subject)])
    return code, err.getvalue().splitlines()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["simulate", "roundtrip", "lemmas"]),
    mutations=st.lists(
        st.tuples(
            st.sampled_from(_DOC_PATHS),
            st.sampled_from(["replace", "replace", "delete", "duplicate"]),
            st.sampled_from(_ODD_VALUES),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_cli_subject_doc_fuzz_honours_exit_codes(tmp_path_factory, command, mutations):
    doc = copy.deepcopy(_DOC)
    for path, op, value in mutations:
        try:
            _mutate(doc, path, op, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this position
    code, lines = _run_doc(tmp_path_factory.mktemp("docfuzz"), doc, command)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: "), (mutations, lines)
    else:
        assert code in (0, 1), (mutations, code)
        assert lines == [], (mutations, lines)


_FIRST_ROW = ("computer", "prequery", "1|0", 0)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (_FIRST_ROW + (0,), "1/0", "zero denominator"),
        (_FIRST_ROW + (0,), True, "amplitude True"),
        (_FIRST_ROW + (0,), "0.5", "'p/q' string"),
        (_FIRST_ROW + (2,), 0.0, "workspace cell must be an integer"),
        (_FIRST_ROW + (1, 0, 0), True, "word block must be an integer"),
        (_FIRST_ROW + (1, 0, 1), 11, "location 11 is not a bit string"),
        (("computer", "n"), 3.5, "n must be an integer"),
        (("computer", "T"), True, "T must be an integer"),
        (("computer", "scratch"), 0, "scratch must be at least 1"),
        (("advice", "length"), 1.0, "advice length must be an integer"),
    ],
)
def test_cli_subject_doc_bad_values_exit_two(tmp_path, path, value, message):
    doc = copy.deepcopy(_DOC)
    _mutate(doc, path, "replace", value)
    code, lines = _run_doc(tmp_path, doc, "simulate")
    assert code == 2
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def _repeat_a_row(doc):
    rows = doc["computer"]["prequery"]["1|0"]
    rows.append(copy.deepcopy(rows[0]))
    return "prequery input (1, '0'): row 1 repeats an earlier row's words and cell"


def _respell_a_fiber(doc):
    # the same fiber with a decimal list index, and the identity as its images
    fibers = doc["computer"]["final"]["table"]
    key = "0x152e,1"
    decimal = f"{0x152e},1"
    fibers[decimal] = sorted(fibers[key])
    return f"fiber keys {key!r} and {decimal!r} name one fiber"


def _respell_an_input(doc):
    table = doc["computer"]["prequery"]
    table["01|0"] = copy.deepcopy(table["1|0"])
    return "prequery input (1, '0'): key '01|0' names an input an earlier key names"


@pytest.mark.parametrize(
    "repeat", [_repeat_a_row, _respell_a_fiber, _respell_an_input], ids=["row", "fiber", "input"]
)
def test_cli_subject_doc_entry_named_twice_exits_two(tmp_path, repeat):
    # the loader would keep the later entry, silently changing the machine
    doc = copy.deepcopy(_DOC)
    message = repeat(doc)
    code, lines = _run_doc(tmp_path, doc, "simulate")
    assert code == 2 and lines == [f"error: subject file is malformed: {message}"], lines


@pytest.mark.parametrize(
    "path, key",
    [
        ((), "advice"),
        (("computer",), "M"),
        (("computer", "prequery"), "1|1"),
        (("computer", "final", "table"), "0x0,0"),
        (("advice", "table"), "M=1 n=3 steps=4"),
    ],
    ids=["top", "header", "input", "fiber", "advice"],
)
def test_cli_subject_file_repeating_a_key_exits_two(tmp_path, path, key):
    # json keeps the last of two equal keys; the file is refused instead,
    # even when both give the same value
    doc = copy.deepcopy(_DOC)
    node = doc
    for step in path:
        node = node[step]
    node["repeat-me"] = None
    repeated = f"{json.dumps(key)}: {json.dumps(node[key])}"
    text = json.dumps(doc).replace('"repeat-me": null', repeated)
    assert text.count(json.dumps(key) + ":") == 2
    code, lines = _run_doc(tmp_path, text, "simulate")
    assert code == 2 and lines == [f"error: subject file repeats the key {key!r}"], lines


def test_cli_subject_doc_bad_fiber_image_exits_two(tmp_path):
    doc = copy.deepcopy(_DOC)
    fibers = doc["computer"]["final"]["table"]
    key = sorted(fibers)[0]
    fibers[key] = [float(v) for v in fibers[key]]
    code, lines = _run_doc(tmp_path, doc, "simulate")
    assert code == 2 and len(lines) == 1 and "fiber image must be an integer" in lines[0]


@pytest.mark.parametrize(
    "content",
    [b'{"computer": {"M": ' + b"1" * 5000 + b"}}", b"\xff\xfe{}", b'{"computer": '],
    ids=["5000-digit int", "not utf-8", "truncated"],
)
def test_cli_unreadable_subject_file_exits_two(tmp_path, content):
    subject = tmp_path / "subject.json"
    subject.write_bytes(content)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(_DOC_CONFIG)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(cfg), "--subject", str(subject)])
    lines = err.getvalue().splitlines()
    assert code == 2 and len(lines) == 1 and "not valid JSON" in lines[0], lines


def test_cli_subject_doc_unmutated_exits_zero(tmp_path):
    code, lines = _run_doc(tmp_path, copy.deepcopy(_DOC), "simulate")
    assert (code, lines) == (0, [])


def test_cli_subject_doc_list_length_error_names_both_lengths(tmp_path):
    doc = copy.deepcopy(_DOC)
    T = doc["computer"]["T"]
    doc["computer"]["T"] = T + 3
    code, lines = _run_doc(tmp_path, doc, "simulate")
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
    assert f"has {T} words" in lines[0] and f"T = {T + 3}" in lines[0], lines
    assert "(1, '0')" in lines[0] and len(lines[0]) < 160, lines


# defects of one prequery term (words, ws, amp), each caught by one check
_TERM_DEFECTS = {
    "norm": lambda words, ws, amp: (words, ws, amp / 2),
    "word": lambda words, ws, amp: ((QueryWord(2, words[0].location), *words[1:]), ws, amp),
    "cell": lambda words, ws, amp: (words, 9, amp),
    "length": lambda words, ws, amp: (words[:-1], ws, amp),
    # a zero term is dropped only after its words are checked
    "zero-bool-block": lambda words, ws, amp: ((words[0]._replace(block=True), *words[1:]), ws, 0),
    "zero-int-location": lambda words, ws, amp: ((QueryWord(1, 11), *words[1:]), ws, 0),
}


@pytest.mark.parametrize("defect", sorted(_TERM_DEFECTS))
def test_library_and_doc_name_a_bad_prequery_input_alike(tmp_path, defect):
    # the same defect in input (1, '0') of a library-built computer and of
    # its exported doc is reported by the same `prequery input (...)` line
    comp, _ = get_subject("shortcut", 1, 3, 1)
    (((words, ws), amp),) = comp.prequery(1, "0").items()
    words, ws, amp = _TERM_DEFECTS[defect](words, ws, amp)
    comp.prequery = lambda block, advice: {(words, ws): amp}
    with pytest.raises(ModelError) as library:
        comp.prequery_state(1, "0")
    assert str(library.value).startswith("prequery input (1, '0'): ")
    doc = copy.deepcopy(_DOC)
    doc["computer"]["prequery"]["1|0"] = [[rational_str(amp), [list(w) for w in words], ws]]
    code, lines = _run_doc(tmp_path, doc, "simulate")
    assert code == 2 and lines == [f"error: subject file is malformed: {library.value}"], lines


@pytest.mark.parametrize("field, value", [("scratch", 2), ("p", 3)])
def test_cli_subject_doc_header_disagreeing_with_fibers_blames_the_header(
    tmp_path, field, value
):
    doc = copy.deepcopy(_DOC)
    header = doc["computer"]
    header[field] = value
    size = 2 ** header["p"] * header["scratch"]
    code, lines = _run_doc(tmp_path, doc, "simulate")
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), lines
    fibers = doc["computer"]["final"]["table"]
    images = len(next(iter(fibers.values())))
    assert f"has {images} images" in lines[0] and f"workspace of {size} cells" in lines[0]
    assert f"p = {header['p']} and scratch = {header['scratch']}" in lines[0], lines
    assert "not a workspace permutation" not in lines[0]
