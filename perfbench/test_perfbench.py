"""The benchmark's own test: smoke runs of every workload, traced and untraced.

Run with `python -m pytest perfbench` from the repository root.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_is_correct_and_reports_every_metric(trace):
    proc = _bench("--smoke", "--workload", "all", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = _spec()
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    for workload in WORKLOADS:
        for metric in wanted:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
    assert len(result["metrics"]) == len(WORKLOADS) * len(wanted)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in _spec()["workloads"]] == list(WORKLOADS)


def test_digest_mismatch_fails_every_row_of_the_job(tmp_path):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    entry = reference["smoke"]["simulate-wide"]
    entry["files"]["simulate.csv"] = "0" * 64
    runner = run.Runner(str(tmp_path), smoke=True, reference=reference, limit_s=60)
    job = runner.job("simulate-wide")
    assert job.errors and job.failed == job.attempted == entry["rows"]


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "simulate-wide", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
