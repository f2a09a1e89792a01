"""lietrees benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload expansion --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is taken from `src/`.
Each run makes its inputs with `generate.py` in a separate process, then
runs the workload again and again, each time in a fresh `worker.py`
process (a closed loop with one caller), until the next repetition would
end after `--seconds`.  Every job's output is checked.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: each is computed
per repetition (job percentiles over jobs 2..N of that repetition) and
the median over repetitions is reported.  With `--trace 1`
untraced and traced repetitions alternate; the metrics are the
per-layer ones from the traced repetitions, plus `trace.overhead_ratio`,
traced over untraced `solution_s`.  Work files go to `.perfbench_work/`
at the root of the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170            # the whole run, generation included, ends by then

sys.path.insert(0, HERE)
from generate import PROFILES, WORKLOADS  # noqa: E402
from tracer import LAYERS  # noqa: E402
from worker import PROBE_REF_S  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "solution_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "jobs_per_s": "1/s", "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update({
        "free_lie.bracket_basis_calls": "count",
        "tensor_hopf.coproduct_terms": "count",
        "exact_linalg.builds": "count", "exact_linalg.build_s": "s",
        "exact_linalg.solves": "count", "exact_linalg.solve_s": "s",
        "exact_linalg.max_block_cells": "count",
        "jacobi.eta_calls": "count",
        "documents.bytes_in": "bytes", "documents.bytes_out": "bytes",
        "trace.overhead_ratio": "ratio",
    })
    return units


def generate(workload: str, seed: int, profile: str, out: str) -> str:
    """Write the inputs in a separate process; returns the spec path."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    subprocess.run([sys.executable, "-I", os.path.join(HERE, "generate.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--profile", profile, "--out", out, "--src", SRC],
                   check=True, timeout=120)
    return os.path.join(out, "spec.json")


def run_once(spec: str, rep: int, rep_dir: str, trace: bool, timeout: float,
             jobs: int) -> dict:
    """One repetition in a fresh process; returns the worker's report.

    A worker that crashes or overruns counts every job as failed."""
    os.makedirs(rep_dir)
    result = os.path.join(rep_dir, "result.json")
    try:
        proc = subprocess.run(
            [sys.executable, "-I", os.path.join(HERE, "worker.py"), spec,
             result, SRC, "1" if trace else "0", str(rep)],
            cwd=rep_dir, timeout=timeout, capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker killed after {timeout:.0f} s"] * jobs}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"errors": [f"worker exited {proc.returncode}: {tail[0]}"] * jobs}
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(spec: str, jobs: int, seconds: float, trace: bool, out: str,
            started: float) -> tuple[list[dict], list[dict]]:
    """Repeat the workload until the next repetition would end after
    `seconds`; returns (untraced reports, traced reports)."""
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.monotonic()
    while True:
        use_trace = trace and len(traced) < len(plain)
        rep = len(plain) + len(traced)
        rep_dir = os.path.join(out, f"rep{rep:03d}")
        budget = DEADLINE_S - (time.monotonic() - started)
        report = run_once(spec, rep, rep_dir, use_trace, budget, jobs)
        (traced if use_trace else plain).append(report)
        if use_trace and "spans" in report:
            os.replace(os.path.join(rep_dir, "spans.jsonl"),
                       os.path.join(out, "spans.jsonl"))
        shutil.rmtree(rep_dir)
        elapsed = time.monotonic() - t0
        left = DEADLINE_S - (time.monotonic() - started)
        if "setup_s" not in report or left < 10:
            return plain, traced
        if trace and not traced:
            continue
        if elapsed + elapsed / (rep + 1) > seconds:
            return plain, traced


def end_to_end(reports: list[dict]) -> dict:
    """Each metric per repetition, then the median over repetitions."""
    def median_of(metric):
        return statistics.median(metric(r) for r in reports)
    return {
        "setup_s": median_of(lambda r: r["setup_s"]),
        "solution_s": median_of(lambda r: r["solution_s"]),
        "job_p50_ms": median_of(lambda r: percentile(r["job_s"][1:], 0.5)) * 1e3,
        "job_p90_ms": median_of(lambda r: percentile(r["job_s"][1:], 0.9)) * 1e3,
        "jobs_per_s": median_of(lambda r: (len(r["job_s"]) - 1) / sum(r["job_s"][1:])),
        "peak_rss_mb": median_of(lambda r: r["peak_rss_mb"]),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {name: statistics.median_low(r["trace"][name] for r in traced)
               for name in traced[0]["trace"]}
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["solution_s"] for r in traced)
        / statistics.median(r["solution_s"] for r in plain))
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool,
          profile: str = "full", prepare=None) -> int:
    """Generate, measure and print; returns the exit code.

    `prepare`, when given, is called with the spec path after generation;
    the benchmark's tests use it to corrupt an expected output."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "lietrees", "__init__.py")):
        print(f"error: no lietrees package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "lietrees"), quiet=1)
    out = os.path.join(WORK, workload)
    spec = generate(workload, seed, profile, out)
    if prepare is not None:
        prepare(spec)
    with open(spec, encoding="utf-8") as fh:
        jobs_per_rep = len(json.load(fh)["jobs"])
    plain, traced = measure(spec, jobs_per_rep, seconds, trace, out, started)
    reports = plain + traced
    with open(os.path.join(out, "reports.json"), "w", encoding="utf-8") as fh:
        json.dump({"untraced": plain, "traced": traced}, fh)
    timed_plain = [r for r in plain if "setup_s" in r]
    timed_traced = [r for r in traced if "setup_s" in r]

    failed = sum(1 for r in reports for e in r["errors"] if e)
    attempted = jobs_per_rep * len(reports)
    digests = {r["sha256"] for r in reports if "sha256" in r}
    for r in reports:
        for e in r["errors"]:
            if e:
                print(f"check failed: {e}")
    if len(digests) > 1:
        print("check failed: outputs differ between repetitions")
    correct = failed == 0 and len(digests) == 1
    if not timed_plain or (trace and not timed_traced):
        print("error: no repetition completed", file=sys.stderr)
        return 1

    print(f"workload {workload} seed {seed} profile {profile}: "
          f"{len(plain)} untraced + {len(traced)} traced repetitions, "
          f"{jobs_per_rep} jobs each, fresh process per repetition, "
          f"closed loop with 1 caller")
    print(f"sha256 {' '.join(sorted(digests))}")
    if trace:
        metrics = per_layer(timed_plain, timed_traced)
        units = per_layer_units()
    else:
        metrics = end_to_end(timed_plain)
        units = END_TO_END_UNITS
        print(f"job latency samples: {jobs_per_rep - 1} per repetition "
              f"(jobs 2..N), {len(timed_plain)} repetitions")
        for name in ("raw_setup_s", "raw_solution_s"):
            value = statistics.median(r[name] for r in timed_plain)
            print(f"{name:32s} {value:.6g} s (unscaled wall time)")
        probes = [p for r in timed_plain for p in r["probe_s"]]
        print(f"{'probe_s':32s} {statistics.median(probes):.6g} s (median of "
              f"{len(probes)} speed probes; the times below are scaled to "
              f"{PROBE_REF_S} s per probe)")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(f"{'error_ratio':32s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs failed)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="lietrees benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--profile", choices=sorted(PROFILES), default="full",
                   help="input sizes; 'smoke' is for the benchmark's tests")
    args = p.parse_args(argv)
    return bench(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.profile)


if __name__ == "__main__":
    sys.exit(main())
