"""Experiment runner behind the command line interface.

Four commands, all sweep-shaped: simulate prints exact output
distributions and error probabilities, roundtrip drives the coders over
every instance and censuses the code lengths, bounds tabulates the query
floors and the certifying constants, lemmas reruns every per-instance
invariant audit. Reports are deterministic: the same configuration
produces byte-identical CSV rows and JSON summaries.

Configuration is a flat key = value file. Rationals are written "p/q".
Recognized keys: M, n, p, k, epsilon, c, l, subject, scheme, budget,
instance, blocks, out. The subject is a built-in name or a path to a
JSON file holding the computer and advice tables.
"""

from __future__ import annotations

import csv
import io
import json
import os
from decimal import Decimal
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .adversary import adversary_bound
from .compression import (
    AUDIT_CHECKS,
    Coder,
    DecodeError,
    EncodingContext,
    EncodingFormatError,
    ErrorParams,
    LwssExhaustedError,
    _single_check,
    audit_instance,
    c_uv_values,
    census,
    decode,
    decode_single,
    encode,
    encode_single,
    single_block_bound,
)
from .model import advice_from_doc, computer_from_doc, doc_shape, run
from .ordered_search import enumerate_instances, eval_G, parse_instance
from .statevec import ZERO, as_rational, checked_epsilon, rational_str
from .subjects import REGISTRY, SubjectError, get_subject, query_count


class ConfigError(ValueError):
    """Bad configuration keys, values, or cross-field combinations."""


_INT_KEYS = ("M", "n", "p", "k", "l", "budget")


class ExperimentConfig(NamedTuple):
    M: int = 1
    n: int = 3
    p: int = 1
    k: int = 0
    epsilon: Fraction = Fraction(1, 3)
    c: Fraction = Fraction(1, 8)
    l: int = 1
    subject: str = "full"
    scheme: str = "multi"
    budget: int = 4096
    instance: str | None = None
    blocks: tuple[int, ...] | None = None
    out: str | None = None


_ALL_KEYS = ExperimentConfig._fields


def parse_config(text: str) -> dict:
    """Read "key = value" lines; blank lines and # comments are skipped."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_config(raw: dict, **overrides) -> ExperimentConfig:
    fields: dict = {}
    for key, value in raw.items():
        if key in _INT_KEYS:
            try:
                fields[key] = int(value)
            except ValueError:
                raise ConfigError(f"{key} must be an integer, got {value!r}") from None
        elif key in ("epsilon", "c"):
            try:
                fields[key] = as_rational(value)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{key} must be a rational like 1/3") from None
        elif key == "blocks":
            try:
                fields[key] = tuple(int(v) for v in value.split(","))
            except ValueError:
                raise ConfigError("blocks must be comma-separated integers") from None
        else:
            fields[key] = value
    for key, value in overrides.items():
        if value is not None:
            fields[key] = value
    cfg = ExperimentConfig(**fields)
    if cfg.M < 1 or cfg.n < 1:
        raise ConfigError("M and n must be at least 1")
    if cfg.scheme not in ("multi", "single"):
        raise ConfigError("scheme must be multi or single")
    if cfg.budget < 0:
        raise ConfigError("budget must be nonnegative")
    return cfg


def load_config(path: str | None, **overrides) -> ExperimentConfig:
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = parse_config(fh.read())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from None
        except UnicodeDecodeError as e:
            raise ConfigError(f"config {path} is not UTF-8 text: {e}") from None
    return build_config(raw, **overrides)


def _unique_keys(pairs: list) -> dict:
    """A JSON object, or ConfigError if it repeats a key: json itself keeps
    the last of two equal keys, silently dropping the earlier entry."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _value in pairs:
            if key in seen:
                raise ConfigError(f"subject file repeats the key {key!r}")
            seen.add(key)
    return obj


def resolve_subject(cfg: ExperimentConfig):
    """Build a registry subject or load one from a JSON file."""
    if cfg.subject in REGISTRY:
        try:
            return get_subject(cfg.subject, cfg.M, cfg.n, cfg.k)
        except (SubjectError, ValueError) as e:
            raise ConfigError(str(e)) from None
    try:
        with open(cfg.subject, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as e:
        raise ConfigError(f"subject is neither a built-in name nor a readable file: {e}") from None
    except ConfigError:
        raise
    except (ValueError, RecursionError) as e:
        # malformed JSON, bytes that are not UTF-8, an integer too long for
        # int() (Python's digit limit), or arrays or objects nested past the
        # interpreter's recursion limit
        raise ConfigError(f"subject file is not valid JSON: {e}") from None
    # compare the doc's shape with the config before anything is sized from it
    try:
        shape = doc_shape(doc["computer"])
        if shape == (cfg.M, cfg.n, cfg.k):
            computer = computer_from_doc(doc["computer"])
            advice_fn = advice_from_doc(doc["advice"])
    except (KeyError, ValueError, TypeError) as e:
        raise ConfigError(f"subject file is malformed: {e}") from None
    if shape[:2] != (cfg.M, cfg.n):
        raise ConfigError("subject file disagrees with the configured M or n")
    if shape[2] != cfg.k:
        raise ConfigError("subject file disagrees with the configured k")
    if advice_fn.length != computer.advice_len:
        raise ConfigError("subject file's advice length disagrees with its computer")
    return computer, advice_fn


class Report(NamedTuple):
    name: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    summary: dict
    ok: bool


def report_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.header)
    writer.writerows(report.rows)
    return buf.getvalue()


def report_json(report: Report) -> str:
    doc = {"command": report.name, "ok": report.ok, "summary": report.summary}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def emit(report: Report, out: str | None) -> None:
    """Write CSV and JSON next to each other, or both to stdout."""
    if out is None:
        print(report_csv(report), end="")
        print(report_json(report), end="")
        return
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{report.name}.csv"), "w", encoding="utf-8") as fh:
        fh.write(report_csv(report))
    with open(os.path.join(out, f"{report.name}.json"), "w", encoding="utf-8") as fh:
        fh.write(report_json(report))


def _params(cfg) -> ErrorParams:
    try:
        return ErrorParams(cfg.epsilon, cfg.c)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _multi_coder(cfg, computer, advice_fn) -> Coder:
    if cfg.p > computer.output_width:
        raise ConfigError("p exceeds the subject's output width")
    try:
        return Coder(computer, advice_fn, cfg.p, cfg.l, _params(cfg))
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _instances(cfg):
    """The instance literal, or the sweep with its budget already checked."""
    if cfg.instance is not None:
        try:
            instance = parse_instance(cfg.instance)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if (instance.M, instance.n) != (cfg.M, cfg.n):
            raise ConfigError("instance literal disagrees with M or n")
        return [instance]
    return enumerate_instances(cfg.M, cfg.n, cfg.budget)


_PASS, _FAIL = "pass", "fail"


def cmd_simulate(cfg: ExperimentConfig) -> Report:
    # epsilon is checked here, not through ErrorParams: c plays no part
    try:
        checked_epsilon(cfg.epsilon)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if not 1 <= cfg.p <= cfg.n:
        raise ConfigError("p must lie in [1, n]")
    # the default is a range, so a huge M costs nothing before the budget check
    blocks = cfg.blocks or range(1, cfg.M + 1)
    if cfg.blocks and any(not 1 <= b <= cfg.M for b in cfg.blocks):
        raise ConfigError("blocks must lie in [1, M]")
    instances = _instances(cfg)
    computer, advice_fn = resolve_subject(cfg)
    if cfg.p > computer.output_width:
        raise ConfigError("p exceeds the subject's output width")
    rows = []
    max_error = ZERO
    for instance in instances:
        f = advice_fn(instance)
        for block in blocks:
            dist = run(computer, block, f, instance.steps, width=cfg.p)
            expected = eval_G(instance, block, cfg.p)
            error = 1 - dist.get(expected, ZERO)
            max_error = max(max_error, error)
            shown = " ".join(
                f"{a}:{rational_str(pr)}" for a, pr in sorted(dist.items())
            )
            rows.append(
                (
                    instance.literal(),
                    str(block),
                    expected,
                    shown,
                    rational_str(error),
                    _PASS if error <= cfg.epsilon else _FAIL,
                )
            )
    ok = max_error <= cfg.epsilon
    summary = {
        "rows": len(rows),
        "subject": cfg.subject,
        "T": computer.T,
        "p": cfg.p,
        "epsilon": rational_str(as_rational(cfg.epsilon)),
        "max_error": rational_str(max_error),
    }
    return Report(
        name="simulate",
        header=("instance", "block", "expected", "distribution", "error", "status"),
        rows=tuple(rows),
        summary=summary,
        ok=ok,
    )


def _coder(cfg, computer, advice_fn):
    """Encode and decode functions of the configured scheme for one instance."""
    if cfg.scheme == "multi":
        coder = _multi_coder(cfg, computer, advice_fn)
        return partial(encode, coder), partial(decode, coder)
    # the scheme's shape is checked once, before the error parameters are read
    try:
        p = _single_check(computer)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    coder = Coder(computer, advice_fn, p, 1, _params(cfg))
    return partial(encode_single, coder), partial(decode_single, coder)


def cmd_roundtrip(cfg: ExperimentConfig) -> Report:
    # The census always covers the whole sweep, also when one instance is
    # run; each code is made once, and a one-instance run reads its own.
    sweep = list(enumerate_instances(cfg.M, cfg.n, cfg.budget))
    instances = sweep if cfg.instance is None else _instances(cfg)
    computer, advice_fn = resolve_subject(cfg)
    encode_one, decode_one = _coder(cfg, computer, advice_fn)
    codes = {instance: encode_one(instance) for instance in sweep}
    rows = []
    # a sweep has few distinct item maps: each is formatted once
    shown_items: dict = {}
    for instance in instances:
        enc = codes[instance]
        try:
            status = _PASS if decode_one(enc) == instance else _FAIL
        except (DecodeError, EncodingFormatError, LwssExhaustedError):
            status = _FAIL
        items = shown_items.get(enc.items)
        if items is None:
            items = shown_items[enc.items] = enc.items_compact()
        rows.append(
            (
                instance.literal(),
                str(enc.case),
                str(len(enc)),
                enc.hex,
                items,
                status,
            )
        )
    pig = census(codes.items(), cfg.M * cfg.n)
    passed = sum(1 for row in rows if row[-1] == _PASS)
    summary = {
        "scheme": cfg.scheme,
        "subject": cfg.subject,
        "roundtrips": f"{passed}/{len(rows)}",
        "injective": pig.injective,
        "max_length": pig.max_length,
        "codes_at_least_Mn": pig.long_count,
    }
    if cfg.scheme == "multi":
        summary.update(
            l=cfg.l,
            case1=pig.case1_count,
            case2=pig.case2_count,
            min_length=pig.min_length,
        )
    return Report(
        name="roundtrip",
        header=("instance", "case", "length", "hex", "items", "status"),
        rows=tuple(rows),
        summary=summary,
        ok=passed == len(rows) and pig.ok,
    )


def _query_count(cfg: ExperimentConfig) -> int:
    """The subject's T: a built-in states it without being built, a JSON
    subject is loaded and checked in full."""
    if cfg.subject in REGISTRY:
        try:
            return query_count(cfg.subject, cfg.M, cfg.n, cfg.k)
        except SubjectError as e:
            raise ConfigError(str(e)) from None
    return resolve_subject(cfg)[0].T


def _about(v: Fraction) -> str:
    """A bound's note value: ten decimals while it fits a float, eleven
    significant digits in exponent form past float range."""
    try:
        return f"{float(v):.10f}"
    except OverflowError:
        return f"{Decimal(v.numerator) / v.denominator:.10e}"


def _row(name: str, l: str, v: Fraction | None, note: str) -> tuple[str, ...]:
    """One bounds row. None is an irrational value; a value past Python's
    integer digit limit is refused."""
    try:
        shown = "irrational exponent" if v is None else rational_str(v)
    except ValueError as e:
        raise ConfigError(f"{name} is too long to print: {e}") from None
    return (name, l, shown, note)


def cmd_bounds(cfg: ExperimentConfig) -> Report:
    if cfg.M > cfg.budget:
        raise ConfigError(f"bounds rows for l = 1..M at M={cfg.M} exceed budget {cfg.budget}")
    T = _query_count(cfg)
    params = _params(cfg)
    N = 2**cfg.n
    rows = []
    # advice bits past M * n are padding: the window is then one location
    upper = query_count("advised", cfg.M, cfg.n, min(cfg.k, cfg.M * cfg.n))
    rows.append(_row("reference-upper", "-", upper, "queries of the advised reference machine"))
    rows.append(_row("subject-T", "-", T, cfg.subject))
    if cfg.M == 1 and cfg.k + 1 <= cfg.n:
        v = single_block_bound(cfg.n, cfg.k, params)
        rows.append(_row("single-block-floor", "-", v, f"about {_about(v)}"))
    adv = adversary_bound(N, cfg.k, cfg.epsilon)
    rows.append(_row("adversary-floor", "-", adv, f"about {_about(adv)}, within 1e-9"))
    for l in range(1, cfg.M + 1):
        try:
            ctx = EncodingContext(
                M=cfg.M, n=cfg.n, p=cfg.p, k=cfg.k, T=T, l=l, params=params
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
        few_good, many_bad = c_uv_values(ctx)
        rows.append(
            _row("c-uv-good-branch", str(l), few_good, "applies when at least l blocks are good")
        )
        rows.append(_row("c-uv-bad-branch", str(l), many_bad, "applies otherwise"))
    summary = {
        "M": cfg.M,
        "n": cfg.n,
        "k": cfg.k,
        "epsilon": rational_str(as_rational(cfg.epsilon)),
        "c": rational_str(as_rational(cfg.c)),
        "reference_upper": upper,
        "subject_T": T,
    }
    return Report(
        name="bounds",
        header=("bound", "l", "value", "note"),
        rows=tuple(rows),
        summary=summary,
        ok=True,
    )


def cmd_lemmas(cfg: ExperimentConfig) -> Report:
    if cfg.scheme == "single":
        raise ConfigError("lemma audits apply to the multi scheme")
    instances = _instances(cfg)
    coder = _multi_coder(cfg, *resolve_subject(cfg))
    rows = []
    failed = 0
    for instance in instances:
        audit = audit_instance(coder, instance)
        flags = [getattr(audit, attr) for _, attr in AUDIT_CHECKS]
        if not all(flags):
            failed += 1
        rows.append(
            (
                audit.instance,
                str(audit.case),
                str(audit.length),
                str(audit.expected),
                *(_PASS if flag else _FAIL for flag in flags),
                _PASS if all(flags) else _FAIL,
            )
        )
    summary = {
        "subject": cfg.subject,
        "l": cfg.l,
        "rows": len(rows),
        "failed": failed,
    }
    return Report(
        name="lemmas",
        header=(
            "instance",
            "case",
            "length",
            "expected",
            *(name for name, _ in AUDIT_CHECKS),
            "status",
        ),
        rows=tuple(rows),
        summary=summary,
        ok=failed == 0,
    )


COMMANDS = {
    "simulate": cmd_simulate,
    "roundtrip": cmd_roundtrip,
    "bounds": cmd_bounds,
    "lemmas": cmd_lemmas,
}
