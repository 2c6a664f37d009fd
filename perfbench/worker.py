"""One benchmark step in a fresh process: set up, then run the job.

Usage: python3 worker.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's `time.monotonic()` just before it started this
process; CLOCK_MONOTONIC is shared by all processes, so set-up time counts
interpreter start-up and `import ttquery` as well. SPEC_JSON holds:

  kind        "cli" or "export"
  command     the CLI subcommand of a cli step
  config      path of the step's config file
  subject     --subject override, or null
  out         directory for reports (cli) or the written subject (export)
  setup_only  stop after set-up
  trace       path to dump the trace to, or null for an untraced step

Set-up is `load_config` plus `harness.resolve_subject`. The job then reuses
that subject: `harness.resolve_subject` is replaced by a function returning
it, so work done while building or loading a subject is counted once, in
set-up. Prints one JSON line: setup_s, job_s, job_cpu_s (the job's
process CPU time, which leaves out time the host took the CPU away), rc,
rss_kb.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def _export(computer_advice, cfg, out: str, tracer) -> None:
    from ttquery.model import advice_to_doc, computer_to_doc
    from ttquery.ordered_search import enumerate_instances

    computer, advice_fn = computer_advice
    inputs = [
        (block, format(a, f"0{cfg.k}b") if cfg.k else "")
        for block in range(1, cfg.M + 1)
        for a in range(2**cfg.k)
    ]
    instances = list(enumerate_instances(cfg.M, cfg.n, cfg.budget))
    doc = {
        "computer": computer_to_doc(computer, inputs),
        "advice": advice_to_doc(advice_fn, instances),
    }
    with tracer.region("export.write") if tracer else nullcontext():
        text = json.dumps(doc)
        os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if tracer:
        tracer.extra["model.doc_bytes"] = len(text.encode())


def main(argv) -> int:
    spec = json.loads(argv[1])
    spawned = float(argv[2])
    from ttquery import cli, harness

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    region = tracer.region if tracer else (lambda name: nullcontext())
    with region("worker.setup"):
        cfg = harness.load_config(spec["config"], subject=spec.get("subject"))
        subject = harness.resolve_subject(cfg)
    set_up = time.monotonic()
    cpu_set_up = time.process_time()
    result = {"setup_s": set_up - spawned}
    if not spec.get("setup_only"):
        harness.resolve_subject = lambda _cfg: subject
        with region("worker.job"):
            if spec["kind"] == "export":
                _export(subject, cfg, spec["out"], tracer)
                rc = 0
            else:
                args = [spec["command"], "--config", spec["config"], "--out", spec["out"]]
                if spec.get("subject"):
                    args += ["--subject", spec["subject"]]
                rc = cli.main(args)
        result["job_s"] = time.monotonic() - set_up
        result["job_cpu_s"] = time.process_time() - cpu_set_up
        result["rc"] = rc
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(spec["trace"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
