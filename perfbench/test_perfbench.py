"""Tests of the benchmark itself: python3 -m pytest -q perfbench

They run the benchmark for a fraction of a second per workload, which still
means one or two full passes each; the whole file takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

workloads = run.load_workloads()  # also puts the checkout's src/ on sys.path

import spans  # noqa: E402  (imports the package)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args, cwd=ROOT, flags=()):
    return subprocess.run([sys.executable, *flags, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_self_time_subtracts_children():
    recorded = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1),
                ("b", 5.0, 6.0, 0)]
    assert spans.self_times(recorded) == {"a": 6.0, "b": 3.0, "c": 1.0}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_counts_repeat_across_traced_runs(workload):
    first, second = (result_of(bench("--workload", workload, "--seed", "5",
                                     "--seconds", "0.1", "--trace", "1"))
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    counts = {name for name, m in first["metrics"].items() if m["unit"] in ("count", "bytes")}
    assert len(counts) == len(spans.COUNT_METRICS)
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert all(first["metrics"][name]["value"] > 0 for name in counts)


def test_untraced_run_imports_no_tracer():
    proc = bench("--workload", "phi_build", "--seconds", "0.1", flags=("-X", "importtime"))
    result = result_of(proc)
    assert result["correct"] and set(result["metrics"]) == {"wall_s", "peak_rss_mb", "setup_s"}
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "workloads" in imported
    assert "spans" not in imported


def test_wrong_output_or_raising_job_counts_as_failed():
    inputs = workloads.make_inputs("phi_build", 0)
    with open(run.REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    canary = [("canary", workloads.job_canary)]
    clock = run.ScaledClock()

    failures = []
    run.run_pass(clock, canary, inputs, reference, failures)
    assert failures == []

    key = f"canary.phi_2.prec{workloads.CANARY_PREC}"
    tampered = dict(reference, **{key: "0" * 64})
    run.run_pass(clock, canary, inputs, tampered, failures)
    assert len(failures) == 1 and key in failures[0]

    def broken(inputs):
        workloads.check(False, "second route disagrees")
    failures.clear()
    run.run_pass(clock, [("broken", broken)], inputs, reference, failures)
    assert failures == ["broken: CheckFailed: second route disagrees"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "phi_build", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
