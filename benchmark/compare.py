#!/usr/bin/env python3
"""Compares the end-to-end metrics of a parent and a change.

Usage:
  python3 benchmark/compare.py --parent DIR --change DIR [--save FILE]
  python3 benchmark/compare.py --load FILE

Both directories are checkouts of the repository holding the same
benchmark/. For every workload in BENCHMARK.json, pair i = 1..10 runs each
side once on seed i through the command there, for its run_seconds,
alternating which side goes first. Per (workload, metric) the report gives each side's median and
quartiles, the spread of the parent's own runs (interquartile range over
median), the share of pairs the change wins (ties count for neither) and a
verdict:

  identical     every pair reads the same: integers exactly, energy to 1e-9
                relative (the sim-time metrics repeat on a seed)
  gain          the change wins >= 90 % of the pairs and the medians differ
                by more than the parent's interquartile range
  REGRESSION    the change's median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json
  unresolved    the parent's own spread exceeds the bound, and not every run
                of the change beats every run of the parent
  within bound  none of the above

Running a checkout against itself (--parent DIR --change DIR) measures the
benchmark's run-to-run agreement. --save keeps every run's metrics with the
host's CPU count and each side's commit. Exits 1 on any REGRESSION.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A run may build first; the contract allows 900 s for that.
RUN_TIMEOUT_S = 900
# The gain rule asks for at least ten pairs.
PAIRS = 10


def run_once(checkout, spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    try:
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.exit(f"{checkout}: {workload} seed {seed} failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def commit_of(checkout):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def collect(args, spec):
    runs = {"host_cpus": os.cpu_count(), "run_seconds": spec["run_seconds"],
            "parent": {"dir": str(args.parent), "commit": commit_of(args.parent)},
            "change": {"dir": str(args.change), "commit": commit_of(args.change)},
            "pairs": []}
    for w in (w["name"] for w in spec["workloads"]):
        for seed in range(1, PAIRS + 1):
            sides = (["parent", "change"] if seed % 2 == 1
                     else ["change", "parent"])
            pair = {"workload": w, "seed": seed, "first": sides[0]}
            for side in sides:
                pair[side] = run_once(getattr(args, side), spec, w, seed)
            print(f"{w} seed {seed}: done", file=sys.stderr)
            runs["pairs"].append(pair)
    return runs


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def same_value(a, b):
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b))


def verdict(spec_metric, parent, change):
    if all(same_value(p, c) for p, c in zip(parent, change)):
        return "identical"
    lower = spec_metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    pq1, pm, pq3 = quartiles(parent)
    cm = statistics.median(change)
    worse_by = ((cm - pm) if lower else (pm - cm)) / pm
    wins = sum(better(c, p) for p, c in zip(parent, change)) / len(parent)
    if (pq3 - pq1) / pm > spec_metric["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "gain"
        return "unresolved"
    if worse_by > spec_metric["bound"]:
        return "REGRESSION"
    if wins >= 0.9 and better(cm, pm) and abs(cm - pm) > pq3 - pq1:
        return "gain"
    return "within bound"


def report(runs, spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"host_cpus {runs['host_cpus']}, run_seconds {runs['run_seconds']}, "
          f"parent {runs['parent']['commit']}, change {runs['change']['commit']}")
    failed = False
    workloads = list(dict.fromkeys(p["workload"] for p in runs["pairs"]))
    for w in workloads:
        pairs = [p for p in runs["pairs"] if p["workload"] == w]
        print(f"\n{w} ({len(pairs)} pairs)")
        print(f"  {'metric':24s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'chg/par':>8s} "
              f"{'spread':>7s} {'bound':>6s} {'wins':>5s}  verdict")
        for name, m in metrics.items():
            if len(pairs) < 2:
                print(f"  {name:24s} needs at least 2 pairs")
                continue
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            lower = m["better"] == "lower"
            pq1, pm, pq3 = quartiles(parent)
            cq1, cm, cq3 = quartiles(change)
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(parent, change)) / len(pairs)
            v = verdict(m, parent, change)
            failed |= v == "REGRESSION"
            print(f"  {name:24s} {pm:12.4f} [{pq1:8.4g}, {pq3:8.4g}] "
                  f"{cm:12.4f} [{cq1:8.4g}, {cq3:8.4g}] {cm / pm:8.4f} "
                  f"{(pq3 - pq1) / pm:7.4f} {m['bound']:6.3f} {wins:5.2f}  {v}")
    return failed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--load", type=Path)
    args = parser.parse_args()

    if args.load:
        runs = json.loads(args.load.read_text())
    elif not (args.parent and args.change):
        parser.error("give --parent and --change, or --load")
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if not args.load:
        runs = collect(args, spec)
        if args.save:
            args.save.write_text(json.dumps(runs, indent=1) + "\n")
    return 1 if report(runs, spec) else 0


if __name__ == "__main__":
    sys.exit(main())
