"""Outside-in tracer for ttquery: wraps the package's public functions.

Nothing under src/ changes. `install` replaces each traced function with a
wrapper in its defining module and in every module or module-level dict that
holds the same object, so `from .x import y` aliases such as `harness.encode`
or `compression.measure_register` and the `harness.COMMANDS` table are
traced too. Methods and the `ErrorParams.C` property are wrapped on their
classes. A traced name that no longer exists is listed as missing and its
metrics read 0.

A span is (name, start, end, parent span). Spans live in flat in-memory
arrays and are written once, by `dump`, when the traced process ends;
`layer_metrics` derives inclusive and self times from them. Counts and
distinct argument keys are recorded at the same boundaries. No traced
function calls itself, so a name's inclusive time is the plain sum of its
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager

# span name -> (module, attribute, parameters whose distinct values are counted)
SPANS = {
    "cli.main": ("ttquery.cli", "main", None),
    "harness.resolve_subject": ("ttquery.harness", "resolve_subject", None),
    "harness.emit": ("ttquery.harness", "emit", None),
    "subjects.build": ("ttquery.subjects", "get_subject", None),
    "model.run": ("ttquery.model", "run", None),
    "model.oracle": ("ttquery.model", "apply_oracle", None),
    "model.prequery": ("ttquery.model", "NonadaptiveComputer.prequery_state", ("block", "advice")),
    "model.to_doc": ("ttquery.model", "computer_to_doc", None),
    "model.advice_to_doc": ("ttquery.model", "advice_to_doc", None),
    "model.from_doc": ("ttquery.model", "computer_from_doc", None),
    "compression.weight": ("ttquery.compression", "prefix_weights", ("block", "advice", "p")),
    "compression.profile": ("ttquery.compression", "profile", None),
    "compression.encode": ("ttquery.compression", "encode", ("instance",)),
    "compression.decode": ("ttquery.compression", "decode", None),
    "compression.select": ("ttquery.compression", "_select", None),
    "compression.census": ("ttquery.compression", "verify_pigeonhole", None),
    "compression.audit": ("ttquery.compression", "audit_instance", None),
    "statevec.measure": ("ttquery.statevec", "measure_register", None),
    "statevec.distance": ("ttquery.statevec", "distance_sq", None),
}
# count name -> (module, attribute); calls are counted without a span
COUNTS = {
    "compression.C_evals": ("ttquery.compression", "ErrorParams.C"),
    "ordered_search.answers": ("ttquery.ordered_search", "StepInstance.answer"),
}
# count name -> (module, generator function); yielded items are counted
ITEMS = {
    "ordered_search.instances": ("ttquery.ordered_search", "enumerate_instances"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.missing: list[str] = []
        self.extra: dict[str, float] = {}

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def region(self, name: str):
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self.span_start[idx] = t0
            self._stack.pop()

    def spanned(self, name: str, fn, key=None):
        keys = self.keys.setdefault(name, set()) if key else None
        perf, start, end, stack, open_ = (
            time.perf_counter, self.span_start, self.span_end, self._stack, self._open,
        )

        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(key(args, kwargs))
            idx = open_(name)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf()
                start[idx] = t0
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def items_counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return functools.wraps(fn)(wrapper)

    def dump(self, path: str) -> None:
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "counts": self.counts,
            "keys": {name: len(values) for name, values in self.keys.items()},
            "missing": self.missing,
            "extra": self.extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _key_getter(fn, params):
    """Map (args, kwargs) of a call to the values of the named parameters."""
    names = list(inspect.signature(fn).parameters)
    if any(p not in names for p in params):
        return None
    where = [(names.index(p), p) for p in params]

    def key(args, kwargs):
        return tuple(args[i] if i < len(args) else kwargs.get(p) for i, p in where)

    return key


def _replace_everywhere(original, replacement) -> None:
    """Swap `original` for `replacement` in every loaded ttquery module."""
    for modname, module in list(sys.modules.items()):
        if modname != "ttquery" and not modname.startswith("ttquery."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def _wrap(tracer: Tracer, label: str, module: str, path: str, make) -> None:
    """Wrap module attribute `path` ("fn" or "Class.method") with make(fn)."""
    try:
        owner = importlib.import_module(module)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if cls_path else getattr(owner, attr)
    except (ImportError, AttributeError, KeyError):
        tracer.missing.append(label)
        return
    if isinstance(original, property):
        setattr(owner, attr, property(make(original.fget)))
    elif cls_path:
        setattr(owner, attr, make(original))
    else:
        _replace_everywhere(original, make(original))


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the already importable ttquery package."""
    for name, (module, path, params) in SPANS.items():
        def make(fn, name=name, params=params):
            key = _key_getter(fn, params) if params else None
            if params and key is None:
                tracer.missing.append(f"{name} key {params}")
            return tracer.spanned(name, fn, key)

        _wrap(tracer, name, module, path, make)
    for name, (module, path) in COUNTS.items():
        _wrap(tracer, name, module, path, functools.partial(tracer.counted, name))
    for name, (module, path) in ITEMS.items():
        _wrap(tracer, name, module, path, functools.partial(tracer.items_counted, name))
    harness = importlib.import_module("ttquery.harness")
    for command, fn in list(getattr(harness, "COMMANDS", {}).items()):
        _replace_everywhere(fn, tracer.spanned(f"harness.cmd_{command}", fn))
    model = importlib.import_module("ttquery.model")
    final_base = getattr(model, "FinalTransform", None)
    pending = list(final_base.__subclasses__()) if final_base else []
    if not pending:
        tracer.missing.append("model.final")
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "apply" in cls.__dict__:
            setattr(cls, "apply", tracer.spanned("model.final", cls.__dict__["apply"]))


# ---------------------------------------------------------------------------
# Per-layer metrics, derived in the benchmark process from dumped traces

# metric -> span name whose calls it counts
CALL_METRICS = {
    "model.runs": "model.run",
    "model.oracle_calls": "model.oracle",
    "model.prequery_calls": "model.prequery",
    "model.final_calls": "model.final",
    "compression.weight_tables": "compression.weight",
    "compression.profile_calls": "compression.profile",
    "compression.encode_calls": "compression.encode",
    "compression.decode_calls": "compression.decode",
    "compression.select_calls": "compression.select",
    "compression.audit_calls": "compression.audit",
    "statevec.measure_calls": "statevec.measure",
    "statevec.distance_calls": "statevec.distance",
}
# metric -> span name whose inclusive time it sums
TIME_METRICS = {
    "model.run_s": "model.run",
    "model.oracle_s": "model.oracle",
    "model.prequery_s": "model.prequery",
    "model.final_s": "model.final",
    "model.to_doc_s": "model.to_doc",
    "model.from_doc_s": "model.from_doc",
    "subjects.build_s": "subjects.build",
    "harness.resolve_subject_s": "harness.resolve_subject",
    "harness.emit_s": "harness.emit",
    "compression.weight_s": "compression.weight",
    "compression.profile_s": "compression.profile",
    "compression.encode_s": "compression.encode",
    "compression.census_s": "compression.census",
    "compression.decode_s": "compression.decode",
    "compression.select_s": "compression.select",
    "compression.audit_s": "compression.audit",
    "statevec.measure_s": "statevec.measure",
    "statevec.distance_s": "statevec.distance",
}
# metric -> span name whose distinct argument keys it counts
KEY_METRICS = {
    "model.prequery_keys": "model.prequery",
    "compression.weight_keys": "compression.weight",
    "compression.encoded_instances": "compression.encode",
}
# waste ratio -> (numerator, denominator)
RATIOS = {
    "model.prequery_reuse": ("model.prequery_calls", "model.prequery_keys"),
    "compression.weight_reuse": ("compression.weight_tables", "compression.weight_keys"),
    "compression.encodes_per_instance": ("compression.encode_calls", "compression.encoded_instances"),
}
# metrics the worker measures itself rather than from spans
EXTRA_METRICS = ("model.doc_bytes",)
JOB_ROOT = "worker.job"


def _one_step(doc: dict) -> dict:
    names = doc["names"]
    name_of = [names[i] for i in doc["name"]]
    parent, start, end = doc["parent"], doc["start"], doc["end"]
    n = len(name_of)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    root = list(range(n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            root[i] = root[p]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for i, name in enumerate(name_of):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
    job_roots = {i for i in range(n) if parent[i] < 0 and name_of[i] == JOB_ROOT}
    out = {m: calls.get(s, 0) for m, s in CALL_METRICS.items()}
    out.update({m: total.get(s, 0.0) for m, s in TIME_METRICS.items()})
    out.update({m: doc["keys"].get(s, 0) for m, s in KEY_METRICS.items()})
    for name in (*COUNTS, *ITEMS):
        out[name] = doc["counts"].get(name, 0)
    for name in EXTRA_METRICS:
        out[name] = doc["extra"].get(name, 0)
    out["harness.self_s"] = sum(
        dur[i] - child[i]
        for i in range(n)
        if root[i] in job_roots and name_of[i].startswith(("cli.", "harness."))
    )
    out["trace.top_span_s"] = sum(dur[i] for i in range(n) if parent[i] in job_roots)
    return out


def layer_metrics(docs: list[dict]) -> dict:
    """Sum the per-layer metrics of one job's step traces; add the ratios."""
    out: dict = {}
    for doc in docs:
        for name, value in _one_step(doc).items():
            out[name] = out.get(name, 0) + value
    for ratio, (num, den) in RATIOS.items():
        out[ratio] = out[num] / out[den] if out[den] else 0.0
    return out


def missing_targets(docs: list[dict]) -> list[str]:
    return sorted({name for doc in docs for name in doc["missing"]})
