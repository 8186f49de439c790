#!/usr/bin/env bash
# Runs the tracked microbenchmarks and writes their google-benchmark JSON
# baselines into the repo root (BENCH_filterjoin.json, BENCH_pointset.json),
# plus the simulator/parallel-engine runtime baseline (BENCH_runtime.json:
# events/sec, fragments/sec, and experiment trials/sec at 1/2/4 threads).
# Build with -DCMAKE_BUILD_TYPE=Release first; usage:
#   scripts/run_benches.sh [build_dir] [out_dir]
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"

run() {
  local bench="$1" out="$2"
  echo "===== ${bench} -> ${out} ====="
  "${BUILD_DIR}/bench/${bench}" \
    --benchmark_out="${out}" \
    --benchmark_out_format=json \
    --benchmark_repetitions=1
}

run micro_filterjoin "${OUT_DIR}/BENCH_filterjoin.json"
run micro_pointset "${OUT_DIR}/BENCH_pointset.json"

# The simulator/parallel-engine and tracer-overhead microbenches are
# distilled into the "micro" section of BENCH_runtime.json
# (run_all_benches.sh fills the "benches" wall-clock section of the same
# file), the fault-tolerance ablation's repair-vs-re-execution sweep into
# its "repair" section, the delivery-semantics sweep (duplication x
# jitter x cross-attempt replay) into its "delivery" section, the
# single-topology scale sweep into its "scale" section,
# and the continuous multi-query service sweep into its "service" section.
RAW_JSON="$(mktemp)"
RAW_TRACE_JSON="$(mktemp)"
RAW_REPAIR_JSON="$(mktemp)"
RAW_DELIVERY_JSON="$(mktemp)"
RAW_SCALE_JSON="$(mktemp)"
RAW_SERVICE_JSON="$(mktemp)"
trap 'rm -f "${RAW_JSON}" "${RAW_TRACE_JSON}" "${RAW_REPAIR_JSON}" \
  "${RAW_DELIVERY_JSON}" "${RAW_SCALE_JSON}" "${RAW_SERVICE_JSON}"' EXIT

echo "===== abl_fault_tolerance (repair + delivery sweeps) ====="
"${BUILD_DIR}/bench/abl_fault_tolerance" \
  --repair-json="${RAW_REPAIR_JSON}" \
  --delivery-json="${RAW_DELIVERY_JSON}" 42 250 > /dev/null

# Continuous multi-query service sweep (delta collection vs snapshot,
# shared vs dedicated phases at 1/4/16/64 queries) into the "service"
# section.
echo "===== svc_service (continuous service sweep) ====="
"${BUILD_DIR}/bench/svc_service" \
  --service-json="${RAW_SERVICE_JSON}" 42 > /dev/null

# Single-topology scale sweep, one trial per size. Override SCALE_SIZES to
# trade coverage for wall-clock (CI smoke uses 20000,50000; the tracked
# baseline uses the full 5k/15k/50k/150k ladder).
SCALE_SIZES="${SCALE_SIZES:-5000,15000,50000,150000}"
echo "===== fig14_network_size --scale (${SCALE_SIZES}) ====="
"${BUILD_DIR}/bench/fig14_network_size" --scale \
  --scale-sizes="${SCALE_SIZES}" \
  --scale-json="${RAW_SCALE_JSON}" 42

run micro_simulator "${RAW_JSON}"
run micro_trace "${RAW_TRACE_JSON}"
python3 - "${RAW_JSON}" "${RAW_TRACE_JSON}" "${RAW_REPAIR_JSON}" \
  "${RAW_DELIVERY_JSON}" "${RAW_SCALE_JSON}" "${RAW_SERVICE_JSON}" \
  "${OUT_DIR}/BENCH_runtime.json" <<'PY'
import json
import os
import sys

(raw_path, trace_path, repair_path, delivery_path, scale_path,
 service_path, out_path) = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5],
    sys.argv[6], sys.argv[7])
rates = {}
for path in (raw_path, trace_path):
    with open(path) as f:
        raw = json.load(f)
    for bench in raw["benchmarks"]:
        if bench.get("run_type", "iteration") != "iteration":
            continue
        rates[bench["name"]] = float(bench.get("items_per_second", 0.0))

doc = {}
if os.path.exists(out_path):
    with open(out_path) as f:
        doc = json.load(f)

doc["schema"] = "sensjoin-runtime-v1"
doc["host_cpus"] = os.cpu_count() or 1
doc["micro"] = {
    "events_per_sec": {
        "schedule_run_16384": rates.get("BM_EventQueueScheduleRun/16384"),
        "cancel_half_16384": rates.get("BM_EventQueueCancelHalf/16384"),
        "slot_recycle_16384": rates.get("BM_EventQueueSlotRecycle/16384"),
    },
    "fragments_per_sec": rates.get("BM_SimulatorUnicastFragments"),
    "trials_per_sec": {
        "1": rates.get("BM_TestbedTrials/1/real_time"),
        "2": rates.get("BM_TestbedTrials/2/real_time"),
        "4": rates.get("BM_TestbedTrials/4/real_time"),
    },
    "trace": {
        "unicasts_per_sec_no_tracer": rates.get("BM_UnicastNoTracer"),
        "unicasts_per_sec_tracer_disabled": rates.get(
            "BM_UnicastTracerDisabled"),
        "unicasts_per_sec_tracer_enabled": rates.get(
            "BM_UnicastTracerEnabled"),
        "buffer_appends_per_sec": rates.get("BM_TraceBufferAppend"),
    },
    "alloc": {
        "delivery_slots_heap_per_sec": rates.get("BM_DeliverySlotsHeap"),
        "delivery_slots_arena_per_sec": rates.get("BM_DeliverySlotsArena"),
    },
    "layout": {
        "node_state_aos_per_sec_65536": rates.get("BM_NodeStateAoS/65536"),
        "node_state_soa_per_sec_65536": rates.get("BM_NodeStateSoA/65536"),
    },
}

with open(repair_path) as f:
    doc["repair"] = json.load(f)

with open(delivery_path) as f:
    doc["delivery"] = json.load(f)

with open(scale_path) as f:
    doc["scale"] = json.load(f)
# The scale rows are wall-clock and RSS readings of this host; record its
# CPU count next to them.
doc["scale"]["host_cpus"] = os.cpu_count() or 1

with open(service_path) as f:
    doc["service"] = json.load(f)

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote micro, repair, delivery, scale and service sections "
      f"of {out_path}")
PY
