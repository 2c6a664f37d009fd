"""The benchmark's workloads: exhaustive sweeps fixed entirely by their configs.

Why each workload was chosen is recorded in BENCHMARK.json.

A workload is a sequence of steps; each step runs in a fresh Python process
(see worker.py). A "cli" step calls `ttquery.cli.main` on a config file; an
"export" step serializes a built-in subject with `computer_to_doc` and
`advice_to_doc` and writes it as JSON for the later "cli" steps to load
through `--subject`. Every step has a full size, timed by the benchmark, and
a smoke size that runs the same code path in well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

DOC = "@doc"  # a cli step's subject: the file the export step wrote


@dataclass(frozen=True)
class Step:
    kind: str  # "cli" or "export"
    command: str  # CLI subcommand, or "export"
    config: dict  # full-size config keys
    smoke: dict  # overrides applied to `config` in smoke mode
    subject: str | None = None  # DOC to load the exported subject

    def settings(self, smoke: bool) -> dict:
        return {**self.config, **self.smoke} if smoke else dict(self.config)


_PROBE = {"subject": "probe", "M": 4, "n": 2, "k": 4, "p": 1}
_PROBE_SMOKE = {"M": 2, "n": 2, "k": 2}
_SHORTCUT = {"subject": "shortcut", "M": 1, "n": 4, "k": 1}

WORKLOADS: dict[str, tuple[Step, ...]] = {
    "simulate-wide": (
        Step("cli", "simulate", {"subject": "full", "M": 1, "n": 8, "p": 8}, {"n": 3, "p": 3}),
    ),
    "roundtrip-select": (
        Step("cli", "roundtrip", {**_PROBE, "l": 4}, {**_PROBE_SMOKE, "l": 2}),
    ),
    "lemmas-audit": (
        Step("cli", "lemmas", {**_PROBE, "l": 2}, {**_PROBE_SMOKE, "l": 1}),
    ),
    "subject-export": (
        Step("export", "export", _SHORTCUT, {"n": 3}),
        Step("cli", "simulate", {**_SHORTCUT, "p": 2}, {"n": 3}, subject=DOC),
        Step("cli", "roundtrip", {**_SHORTCUT, "p": 1, "l": 1}, {"n": 3}, subject=DOC),
    ),
}


def config_text(settings: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in settings.items())
