"""ttquery benchmark: timed exhaustive sweeps through the real CLI entry point.

Usage, from the root of a source checkout:

  python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke ...      same code paths at a tiny size
  python3 perfbench/run.py --record         rewrite perfbench/reference.json

Every step of a job runs in a fresh Python process (worker.py), one at a
time, importing ttquery from ./src. With --trace 0 the run repeats the
workload's job for about S seconds (at least two rounds). Its result holds
the end-to-end metrics over the jobs: job_cpu_p75_s, the upper quartile of
the jobs' CPU time, and the medians setup_s and peak_rss_mb. The table
also prints the median wall time job_s and its tail. With --trace 1 it
runs the job once untraced and twice traced and reports the per-layer
metrics and the tracing overhead; it fails if the two traced runs disagree
on any count. Every job's CSV and JSON reports are checked against the
sha256 digests in reference.json; a nonzero exit or a mismatch counts all
of the job's rows as failed. The inputs are fixed by the configs; the seed
only shuffles the order of the workloads in each round.

The last line of output is one JSON object: correct, attempted, failed,
metrics. Exits 2 without a result when ./src/ttquery is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import DOC, WORKLOADS, config_text  # noqa: E402

SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
WORKER = os.path.join(HERE, "worker.py")
MIN_ROUNDS = 2  # timed rounds per workload, whatever --seconds says
SLACK_S = 140.0  # once a run is this far past its --seconds budget, it starts no more steps


@dataclass
class Job:
    setup_s: float = 0.0
    job_s: float = 0.0
    job_cpu_s: float = 0.0
    rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    report_bytes: int = 0
    where: str = ""


class Runner:
    def __init__(self, work: str, smoke: bool, reference: dict | None, limit_s: float):
        self.work = work
        self.limit_s = limit_s
        self.smoke = smoke
        self.reference = reference
        self.started = time.monotonic()
        self.serial = 0
        # A fixed hash seed, so that two runs differ only by the host's noise.
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

    def new_dir(self, label: str) -> str:
        self.serial += 1
        path = os.path.join(self.work, f"{self.serial:04d}-{label}")
        os.makedirs(path)
        return path

    def _doc_path(self, workload: str) -> str:
        return os.path.join(self.work, f"{workload}.subject.json")

    def run_step(self, workload, step, where, *, setup_only=False, trace=False, builtin=False):
        """Run one step in a fresh process; return the worker's result dict."""
        cfg_path = os.path.join(where, f"{step.command}.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(step.settings(self.smoke)))
        doc = self._doc_path(workload)
        spec = {
            "kind": step.kind,
            "command": step.command,
            "config": cfg_path,
            "subject": doc if step.subject == DOC and not builtin else None,
            "out": doc if step.kind == "export" else os.path.join(where, step.command),
            "setup_only": setup_only,
            "trace": os.path.join(where, f"{step.command}.trace.json") if trace else None,
        }
        remaining = self.limit_s - (time.monotonic() - self.started)
        if remaining <= 0:
            return {"error": "run time limit reached before the step started"}
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, json.dumps(spec), repr(spawned)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"{step.command} timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"error": f"{step.command} worker exit {proc.returncode}: {tail[0]}"}
        result = json.loads(lines[-1])
        if spec["trace"]:
            with open(spec["trace"], encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
        return result

    def job(self, workload: str, *, trace=False, builtin=False) -> Job:
        """Run every step of one job and check its reports."""
        where = self.new_dir(workload)
        job = Job(where=where)
        steps = [s for s in WORKLOADS[workload] if not (builtin and s.kind == "export")]
        for step in steps:
            result = self.run_step(workload, step, where, trace=trace, builtin=builtin)
            if "error" in result:
                job.errors.append(result["error"])
                break
            job.setup_s += result["setup_s"]
            job.job_s += result["job_s"]
            job.job_cpu_s += result["job_cpu_s"]
            job.rss_kb = max(job.rss_kb, result["rss_kb"])
            if result["rc"] != 0:
                job.errors.append(f"{step.command} exited {result['rc']}")
            if "trace" in result:
                job.traces.append(result["trace"])
        self._check(workload, steps, where, job)
        return job

    def reports(self, workload: str, steps, where: str) -> dict:
        """Report files of a job, with a doc subject's path normalised away."""
        files = {}
        for step in steps:
            if step.kind != "cli":
                continue
            for ext in ("csv", "json"):
                name = f"{step.command}.{ext}"
                path = os.path.join(where, step.command, name)
                if not os.path.exists(path):
                    continue
                with open(path, "rb") as fh:
                    data = fh.read()
                if step.subject == DOC and ext == "json":
                    builtin_name = json.dumps(step.config["subject"]).encode()
                    data = data.replace(json.dumps(self._doc_path(workload)).encode(), builtin_name)
                files[name] = data
        return files

    def _check(self, workload: str, steps, where: str, job: Job) -> None:
        files = self.reports(workload, steps, where)
        job.report_bytes = sum(len(data) for data in files.values())
        for name, data in files.items():
            if name.endswith(".csv"):
                rows = list(csv.reader(data.decode().splitlines()))[1:]
                job.attempted += len(rows)
                job.failed += sum(1 for row in rows if row and row[-1] == "fail")
        if self.reference is None:
            return
        expected = self.reference["smoke" if self.smoke else "full"][workload]
        digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        for name, digest in expected["files"].items():
            if digests.get(name) != digest:
                job.errors.append(f"{name} does not match its reference digest")
        if job.errors:
            job.attempted = max(job.attempted, expected["rows"])
            job.failed = job.attempted


# ---------------------------------------------------------------------------
# Timed runs


def tail_note(values: list[float]) -> str:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}: no percentile has ten samples beyond it; max {max(values):.4f}"
    q = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(q * n / 100))
    return f"n={n}: p{q} {sorted(values)[rank - 1]:.4f}"


def timed(runner: Runner, names: list[str], seconds: int, rng: random.Random) -> dict:
    samples = {w: {"job": [], "cpu": [], "setup": [], "rss": [], "runs": []} for w in names}
    for w in names:  # untimed: compiles bytecode and warms the file cache
        runner.run_step(w, WORKLOADS[w][0], runner.new_dir(f"{w}-warm"), setup_only=True)
    budget = seconds * len(names)
    start = time.monotonic()
    rounds = 0
    min_rounds = 1 if runner.smoke else MIN_ROUNDS
    while True:
        round_start = time.monotonic()
        for w in rng.sample(names, len(names)):
            run = runner.job(w)
            samples[w]["runs"].append(run)
            if not run.errors:
                samples[w]["setup"].append(run.setup_s)
                samples[w]["job"].append(run.job_s)
                samples[w]["cpu"].append(run.job_cpu_s)
                samples[w]["rss"].append(run.rss_kb)
        rounds += 1
        now = time.monotonic()
        if any(r.errors for s in samples.values() for r in s["runs"]):
            break
        if rounds >= min_rounds and now - start + (now - round_start) > budget:
            break
    return samples


def p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def timed_metrics(s: dict) -> dict:
    if not s["job"]:
        return {}
    return {
        "job_cpu_p75_s": (p75(s["cpu"]), "s"),
        "setup_s": (statistics.median(s["setup"]), "s"),
        "peak_rss_mb": (statistics.median(s["rss"]) / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced runs


def traced(runner: Runner, workload: str) -> tuple[dict, list[Job], list[str]]:
    """One untraced and two traced jobs: per-layer metrics and overhead."""
    plain = runner.job(workload)
    runs = [runner.job(workload, trace=True) for _ in range(2)]
    jobs = [plain, *runs]
    problems = [e for j in jobs for e in j.errors]
    if problems:
        return {}, jobs, problems
    per_run = [tracer.layer_metrics(j.traces) for j in runs]
    for m, j in zip(per_run, runs):
        m["harness.report_bytes"] = j.report_bytes
        m["trace.job_s"] = j.job_s
    counts = [{k: v for k, v in m.items() if not k.endswith("_s")} for m in per_run]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        problems.append(f"traced runs disagree on counts: {', '.join(diff)}")
    metrics = {
        k: statistics.median(m[k] for m in per_run) if k.endswith("_s") else v
        for k, v in per_run[0].items()
    }
    metrics["trace.untraced_job_s"] = plain.job_s
    metrics["trace.overhead_s"] = metrics["trace.job_s"] - plain.job_s
    metrics["trace.unattributed_s"] = metrics["trace.job_s"] - metrics["trace.top_span_s"]
    missing = tracer.missing_targets(runs[0].traces)
    if missing:
        print(f"{workload}: trace targets not found: {', '.join(missing)}")
    return metrics, jobs, problems


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric in tracer.RATIOS:
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------


def record(runner: Runner) -> None:
    """Digest the built-in subject's reports for every workload and size."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    ref = {
        "context": {
            "commit": commit,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "source": "reports of the built-in subjects, recorded by run.py --record",
        },
        "full": {},
        "smoke": {},
    }
    for size in ("full", "smoke"):
        runner.smoke = size == "smoke"
        for w in WORKLOADS:
            job = runner.job(w, builtin=True)
            if job.errors:
                raise SystemExit(f"{w} ({size}): {'; '.join(job.errors)}")
            steps = [s for s in WORKLOADS[w] if s.kind != "export"]
            files = runner.reports(w, steps, job.where)
            ref[size][w] = {
                "files": {n: hashlib.sha256(d).hexdigest() for n, d in sorted(files.items())},
                "rows": job.attempted,
            }
            print(f"recorded {size} {w}: {job.attempted} rows")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the
    # running step and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "ttquery", "__init__.py")):
        print(f"error: no ttquery sources under {SRC}", file=sys.stderr)
        return 2
    reference = None
    if not args.record:
        try:
            with open(REFERENCE, encoding="utf-8") as fh:
                reference = json.load(fh)
        except (OSError, ValueError) as e:
            print(f"error: cannot read {REFERENCE}: {e}", file=sys.stderr)
            return 2
    work = os.path.join(ROOT, ".perfbench-work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        workloads = len(WORKLOADS) if args.workload == "all" else 1
        runner = Runner(work, args.smoke, reference, SLACK_S + args.seconds * workloads)
        if args.record:
            record(runner)
            return 0
        return report(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report_traced(runner: Runner, names: list[str], rng, prefix) -> tuple[dict, list, list]:
    metrics, jobs, problems = {}, [], []
    for w in rng.sample(names, len(names)):
        values, w_jobs, w_problems = traced(runner, w)
        jobs += w_jobs
        problems += [f"{w}: {p}" for p in w_problems]
        if not values:
            continue
        for k, v in sorted(values.items()):
            metrics[prefix(w) + k] = {"value": v, "unit": unit_of(k)}
        for ratio, (num, den) in tracer.RATIOS.items():
            print(f"{w} {ratio} = {values[num]}/{values[den]} = {values[ratio]:.4f}")
        overhead, gap = values["trace.overhead_s"], values["trace.unattributed_s"]
        print(
            f"{w} tracing overhead {overhead:.4f} s; top-level spans "
            f"{values['trace.top_span_s']:.4f} s of traced job_s {values['trace.job_s']:.4f} s, "
            f"{'within' if abs(gap) <= abs(overhead) else 'NOT within'} the overhead"
        )
    return metrics, jobs, problems


def report_timed(runner: Runner, names: list[str], seconds: int, rng, prefix) -> tuple[dict, list, list]:
    metrics, jobs, problems = {}, [], []
    samples = timed(runner, names, seconds, rng)
    print(
        f"{'workload':18} {'job_s':>9} {'job_cpu_p75_s':>13} {'setup_s':>8} "
        f"{'peak_rss_mb':>11} {'fail_frac':>9}"
    )
    for w in names:
        s = samples[w]
        jobs += s["runs"]
        problems += [f"{w}: {e}" for j in s["runs"] for e in j.errors]
        values = timed_metrics(s)
        if not values:
            continue
        for k, (v, unit) in values.items():
            metrics[prefix(w) + k] = {"value": v, "unit": unit}
        attempted = sum(j.attempted for j in s["runs"])
        failed = sum(j.failed for j in s["runs"])
        print(
            f"{w:18} {statistics.median(s['job']):9.4f} {values['job_cpu_p75_s'][0]:13.4f} "
            f"{values['setup_s'][0]:8.4f} {values['peak_rss_mb'][0]:11.2f} "
            f"{failed / max(attempted, 1):9.4f}"
        )
        print(f"  job_s {tail_note(s['job'])}; setup_s n={len(s['setup'])}")
    return metrics, jobs, problems


def report(runner: Runner, args) -> int:
    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    prefix = (lambda w: f"{w}.") if len(names) > 1 else (lambda w: "")
    if args.trace:
        metrics, jobs, problems = report_traced(runner, names, rng, prefix)
    else:
        metrics, jobs, problems = report_timed(runner, names, args.seconds, rng, prefix)
    for p in problems:
        print(f"FAIL {p}")
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.failed for j in jobs)
    print(json.dumps({
        "correct": not problems and failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
