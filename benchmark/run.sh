#!/usr/bin/env bash
# Runs every benchmark workload and prints its metrics by name, with units.
#
# Usage: benchmark/run.sh [--seed N] [--traced | --quick]
#   (default)  end-to-end metrics, run_seconds of BENCHMARK.json per workload
#   --traced   per-layer metrics; spans and traces go to .bench_build/out/
#   --quick    smoke run: two cycles of ops per field variant, one process
#              per workload
#
# Builds benchmark/ on first use. Exits non-zero when the build fails or any
# workload fails an oracle, repetition or replay check.
set -euo pipefail
cd "$(dirname "$0")/.."

seed=42
mode=(--trace 0)
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=$2; shift 2 ;;
    --traced) mode=(--trace 1); shift ;;
    --quick) mode=(--trace 0 --quick); shift ;;
    *) echo "usage: $0 [--seed N] [--traced|--quick]" >&2; exit 2 ;;
  esac
done

read -r seconds workloads < <(python3 -c '
import json
spec = json.load(open("BENCHMARK.json"))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))')

status=0
for w in $workloads; do
  # The JSON result line is for machines; keep the human-readable report.
  python3 benchmark/run.py --workload "$w" --seed "$seed" \
    --seconds "$seconds" "${mode[@]}" | grep -v '^{' || status=1
done
exit $status
