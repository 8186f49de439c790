#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):
  python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--quick]

The first call configures and builds benchmark/ (library included) in
Release mode under .bench_build/; later calls rebuild only what changed.

With --trace 0 the workload runs as three fresh processes, each sized by
S/3 seconds, and every end-to-end metric is the median of the three; the
report lists each process's value. With --trace 1 one such process
replays every op's layers and reports the per-layer metrics, writing its
spans and sim-time trace to .bench_build/out/. --quick runs one process
with two cycles of ops per field variant (a smoke test).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; its metric names and units are checked
against BENCHMARK.json. The exit code is non-zero when the build fails, an
op fails, or an output fails an oracle, repetition or replay check.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "cmake"
OUT = ROOT / ".bench_build" / "out"
BINARY = BUILD / "sensjoin_bench"
REPS = 3
# Wall-clock budget of all processes of one run, build excluded.
RUN_BUDGET_S = 170


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            subprocess.run(
                ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(BUILD), "--target", "sensjoin_bench",
             "-j", jobs],
            stdout=sys.stderr, check=True)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_process(args, seconds, deadline):
    """Runs one sensjoin_bench process; returns (report text, result dict or None)."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", args.trace,
           "--out", str(OUT)]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return "", None
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines[-1].startswith("{"):
        return proc.stdout, None
    report = "\n".join(lines[:-1]) + "\n"
    try:
        return report, json.loads(lines[-1])
    except json.JSONDecodeError:
        return report, None


def combine(results, want):
    """Median of each metric over the processes, with each one's value."""
    combined = {}
    lines = [f"\nmedian of {len(results)} processes "
             f"(each process's value in brackets):"]
    for name, unit in want.items():
        values = [r["metrics"][name]["value"] for r in results]
        combined[name] = {"value": statistics.median(values), "unit": unit}
        each = ", ".join(f"{v:.6g}" for v in values)
        lines.append(f"  {name:30s} {combined[name]['value']:16.6f} {unit:8s}"
                     f" [{each}]")
    return combined, "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"benchmark build failed: {e}", file=sys.stderr)
        return 1

    OUT.mkdir(parents=True, exist_ok=True)
    trace = args.trace == "1"
    reps = 1 if trace or args.quick else REPS
    deadline = time.monotonic() + RUN_BUDGET_S
    want = expected_metrics(trace)
    results = []
    for _ in range(reps):
        report, result = run_process(args, args.seconds / REPS, deadline)
        sys.stdout.write(report)
        if result is None:
            print(f"{args.workload}: sensjoin_bench ended without a result",
                  file=sys.stderr)
            return 1
        results.append(result)
        if not result["correct"]:
            break

    correct = all(r["correct"] for r in results)
    if correct:
        for r in results:
            got = {k: v.get("unit") for k, v in r["metrics"].items()}
            if got != want:
                print(f"{args.workload}: metrics differ from BENCHMARK.json",
                      file=sys.stderr)
                return 1
        metrics, table = combine(results, want)
        if reps > 1:
            sys.stdout.write(table)
    else:
        metrics = {}
    out = {"correct": correct,
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results),
           "metrics": metrics}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
