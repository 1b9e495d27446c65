"""Benchmark of the exact borcherdskit pipeline, stdlib only.

    python3 perfbench/run.py --workload phi_build --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the package from the src/
directory next to this one and refuses to run on any other copy. Workloads
(see README.md next to this file):

    phi_build        series construction and io writes
    lift_two_routes  the direct and exp-log product expansions
    decompose_diag8  coset minima and discriminant groups on diag(8, 8, 8, 8)
    all              each of the three in its own process, one after another

One process runs one client in a closed loop: it repeats a pass over the
workload's fixed job list until --seconds have gone by. Every pass creates its
own lattices, as every CLI call does, and checks every output (see
workloads.py and reference.json). The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json: median pass wall time,
peak RSS of this process, and the median set-up time over SETUP_SAMPLES fresh
processes (package import plus input generation; interpreter start-up is
excluded). With --trace 1 the first half of the run is untraced, the second
half traced by spans.py, and the metrics are the per-layer ones, medians over
the traced passes; the spans are written under out/. Any failed job makes the
exit code 1.

Times are reported at reference speed (ScaledClock). On a shared 2-vCPU
Intel Xeon 2.0 GHz VM, the same CPU-bound code ran up to 3.7x slower for
seconds to minutes at a time, which moved the median of a 30 s run by 25%. So a fixed calibration kernel is timed before, every TICK_S during, and
after every job and every set-up, and their wall time is scaled by
KERNEL_REFERENCE_S / (mean kernel time). The raw wall times are printed on
the line before the result.

--record-reference rewrites reference.json from the current package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = HERE / "out"
WORKLOAD_NAMES = ("phi_build", "lift_two_routes", "decompose_diag8")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
TICK_S = 0.25
# calibration_kernel_s() on an idle Intel Xeon 2.0 GHz vCPU, CPython 3.11.7
KERNEL_REFERENCE_S = 0.005


def calibration_kernel_s() -> float:
    """Wall time of a fixed piece of exact arithmetic made of what dominates
    the package's profile: Fraction construction, addition and hashing, and
    dict updates under tuple keys. It uses nothing from borcherdskit, so no
    change to the package moves it."""
    start = time.perf_counter()
    total = Fraction(0)
    table: dict = {}
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
        key = (i % 100, Fraction(i % 7, 3))
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


class ScaledClock:
    """Times a call at reference speed.

    The kernel runs once before the call, every TICK_S of wall time during it
    (from a SIGALRM interval timer), and once after it. The call's wall time,
    less the kernel runs inside it, is multiplied by KERNEL_REFERENCE_S over
    the mean kernel time. kernel is an attribute so a traced run can wrap it
    in a span of its own, which keeps it out of the layers' self times.
    """

    def __init__(self):
        self.kernel = calibration_kernel_s
        self._samples: list[float] = []

    def _tick(self, signum, frame):
        self._samples.append(self.kernel())

    def time(self, fn):
        """Returns (fn's result, wall seconds, seconds at reference speed)."""
        self._samples = [self.kernel()]
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        elapsed -= sum(self._samples[1:])
        self._samples.append(self.kernel())
        return result, elapsed, elapsed * KERNEL_REFERENCE_S / statistics.fmean(self._samples)


def load_workloads():
    """Import borcherdskit from this checkout's src/, then workloads.py."""
    sys.path.insert(0, str(SRC))
    import borcherdskit
    if Path(borcherdskit.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"borcherdskit came from {borcherdskit.__file__}, not from {SRC}")
    import workloads
    return workloads


def timed_setup(workload, seed):
    """Import the package and make the inputs; returns the workload module,
    the inputs and the set-up seconds at reference speed."""
    def setup():
        workloads = load_workloads()
        return workloads, workloads.make_inputs(workload, seed)
    (workloads, inputs), _, seconds = ScaledClock().time(setup)
    return workloads, inputs, seconds


def child(args: list[str], ok_codes=(0,)) -> str:
    """Run this script in a fresh process and return its last stdout line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *args],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode not in ok_codes or not lines:
        raise RuntimeError(f"child run {args} exited with {proc.returncode}")
    return lines[-1]


def run_job(name, job, inputs, reference, failures, digests) -> None:
    try:
        outputs = job(inputs)
    except Exception as exc:  # a failed job is counted; the run goes on
        failures.append(f"{name}: {type(exc).__name__}: {exc}")
        return
    for oid, text in outputs.items():
        digests[oid] = hashlib.sha256(text.encode()).hexdigest()
    if reference is not None:
        wrong = [oid for oid in outputs if reference.get(oid) != digests[oid]]
        if wrong:
            failures.append(f"{name}: output differs from reference.json: {wrong}")


def run_pass(clock, jobs, inputs, reference, failures) -> tuple[float, float, dict[str, str]]:
    """Run every job once, each timed by clock. Returns the pass's wall
    seconds, the same at reference speed, and the sha256 of every output. A
    job that raises or whose digest differs from reference (unless reference
    is None) is appended to failures."""
    digests: dict[str, str] = {}
    raw = scaled = 0.0
    for name, job in jobs:
        _, job_raw, job_scaled = clock.time(
            lambda: run_job(name, job, inputs, reference, failures, digests))
        raw += job_raw
        scaled += job_scaled
    return raw, scaled, digests


def declared_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(args) -> int:
    samples = [json.loads(child(["--workload", args.workload, "--seed", str(args.seed),
                                 "--setup-probe"]))["setup_s"]
               for _ in range(SETUP_SAMPLES - 1)]
    workloads, inputs, setup_s = timed_setup(args.workload, args.seed)
    samples.append(setup_s)
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    jobs = workloads.WORKLOADS[args.workload][1]
    clock = ScaledClock()

    failures: list[str] = []
    walls: list[tuple[float, float]] = []  # (raw, at reference speed) per pass
    traced_walls: list[tuple[float, float]] = []
    layers: list[dict[str, float]] = []
    start = time.perf_counter()
    untraced_for = args.seconds / 2 if args.trace else args.seconds
    while not walls or time.perf_counter() - start < untraced_for:
        walls.append(run_pass(clock, jobs, inputs, reference, failures)[:2])
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install(workloads)
        clock.kernel = tracer.wrap("bench.calibration", calibration_kernel_s)
        try:
            while not traced_walls or time.perf_counter() - start < args.seconds:
                tracer.begin_pass()
                raw, scaled, _ = run_pass(clock, jobs, inputs, reference, failures)
                traced_walls.append((raw, scaled))
                layers.append(tracer.end_pass(scale=scaled / raw))
        finally:
            tracer.uninstall()
            clock.kernel = calibration_kernel_s
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        values = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        values["trace.overhead_frac"] = (
            statistics.median(w[1] for w in traced_walls)
            / statistics.median(w[1] for w in walls) - 1)
    else:
        values = {
            "wall_s": statistics.median(w[1] for w in walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(samples),
        }

    units = declared_units(args.trace)
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not "
                           "the ones BENCHMARK.json declares")
    attempted = len(jobs) * (len(walls) + len(traced_walls))
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    for name in units:
        print(f"{args.workload} {name} = {values[name]:.6g} {units[name]}")
    print(f"{args.workload} fail_frac = {len(failures) / attempted:.6g} (failed / attempted jobs)")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "chamber": inputs.chamber, "inputs": inputs.sizes,
        "passes": len(walls), "traced_passes": len(traced_walls),
        "raw_pass_wall_s": [w[0] for w in walls + traced_walls],
        "pass_wall_s": [w[1] for w in walls + traced_walls],
        "setup_samples_s": samples,
    }))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 1 if failures else 0


def measure_all(args) -> int:
    """Each workload in a fresh process; prints one table and one JSON line."""
    attempted = failed = 0
    metrics = {}
    correct = True
    for workload in WORKLOAD_NAMES:
        result = json.loads(child(["--workload", workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], ok_codes=(0, 1)))
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{name}": m for name, m in result["metrics"].items()})
        metrics[f"{workload}.fail_frac"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:12.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def record_reference() -> int:
    """Digest every output at seed 0 for every chamber vector."""
    workloads = load_workloads()
    digests: dict[str, str] = {}
    for workload in WORKLOAD_NAMES:
        inputs = workloads.make_inputs(workload, 0)
        for chamber in range(len(workloads.CHAMBERS)):
            inputs.chamber = chamber
            failures: list[str] = []
            found = run_pass(ScaledClock(), workloads.WORKLOADS[workload][1], inputs,
                             None, failures)[2]
            if failures:
                raise RuntimeError(f"{workload}: {failures}")
            for oid, digest in found.items():
                if digests.setdefault(oid, digest) != digest:
                    raise RuntimeError(f"{oid}: two runs gave different outputs")
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {REFERENCE}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        if args.record_reference:
            return record_reference()
        if args.workload == "all":
            return measure_all(args)
        if args.setup_probe:
            print(json.dumps({"setup_s": timed_setup(args.workload, args.seed)[2]}))
            return 0
        return measure(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
