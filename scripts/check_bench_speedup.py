#!/usr/bin/env python3
"""Performance regression tripwires for the tracked benchmark baselines.

Two modes:

Base-station join mode (default):
    check_bench_speedup.py <bench.json> [baseline.json]
  Reads a google-benchmark JSON file (as written by
  `micro_filterjoin --benchmark_out=...`) and compares it with the
  committed baseline (default BENCH_filterjoin.json). For
  BM_ComputeJoinFilter/1500, every BM_ComputeJoinFilter3Way/<n>, every
  BM_ComputeExactJoin/<n>, every BM_ComputeExactJoinRows/<n> and every
  BM_ComputeExactJoinGroup*/<n> (a sharing group's exact joins in one
  call, counters summed over its members) of the baseline, the fresh
  run's `evaluated` counter (predicate evaluations) must not exceed the
  baseline's, and its output counter (`filter` or `rows`) must equal it. Both counters are deterministic, so the check is
  free of timing noise: losing a probe window, as an exhaustive
  enumeration does, raises the 1500-point filter count from ~0.5M to
  ~2.46M.

Runtime mode:
    check_bench_speedup.py --runtime <BENCH_runtime.json> [min_ratio]
  Asserts the parallel experiment engine actually scales: the micro
  trials/sec rate at 4 threads must be >= min_ratio (default 2.0) times
  the 1-thread rate, and at least two sweep benches must show
  threads_1_s / threads_4_s >= min_ratio. The assertion only fires when
  the baseline was recorded on a host with >= 4 CPUs (host_cpus field);
  on smaller hosts there is no parallelism to measure, so the check
  prints the numbers and passes.

  The same mode also checks the tracer overhead baseline (micro.trace,
  from bench/micro_trace.cc): the unicast rate with an attached-but-
  disabled tracer must stay within TRACE_OVERHEAD_TOLERANCE (5%) of the
  no-tracer rate. Disabled tracing is one branch on the hot path, so the
  bound is enforced regardless of CPU count; the check is skipped only
  when the trace fields are absent (baseline predating the tracer).

Scale mode:
    check_bench_speedup.py --scale <BENCH_runtime.json>
  Validates the single-topology scale sweep (the "scale" section written
  by `fig14_network_size --scale --scale-json=...`): peak RSS of the
  largest size must stay under RSS_PER_NODE_BUDGET_KB per node — the
  compact-layout budget. The events/sec of every size are printed for
  the record but not gated.

Service mode:
    check_bench_speedup.py --service <BENCH_runtime.json>
  Validates the continuous multi-query service sweep (the "service"
  section written by `svc_service --service-json=...`):
  - steady-state delta collection packets must be <= COLLECTION_RATIO
    (0.5) times the snapshot executor's collection packets for the same
    query — the delta engine must at least halve the recurring upward
    cost;
  - at the 16-query sweep point, the shared steady-state per-epoch cost
    must be <= SHARING_RATIO (0.25) times the dedicated cost — shared
    phases must amortize at least 4x at 16 queries.
  Both bounds are deterministic simulator packet counts, not wall-clock
  timings, so they are enforced unconditionally.
"""
import json
import sys

TRACE_OVERHEAD_TOLERANCE = 0.05
RSS_PER_NODE_BUDGET_KB = 32.0
SERVICE_COLLECTION_RATIO = 0.5
SERVICE_SHARING_RATIO = 0.25
SERVICE_SHARING_POINT = 16


JOIN_BENCH_PREFIXES = (
    "BM_ComputeJoinFilter/1500",
    "BM_ComputeJoinFilter3Way/",
    "BM_ComputeExactJoin/",
    "BM_ComputeExactJoinRows/",
    "BM_ComputeExactJoinGroup",
)


def join_counters(path: str) -> dict:
    with open(path) as f:
        data = json.load(f)
    return {
        bench["name"]: bench
        for bench in data["benchmarks"]
        if bench.get("run_type", "iteration") == "iteration"
    }


def check_join_counters(path: str, baseline_path: str) -> int:
    fresh = join_counters(path)
    baseline = join_counters(baseline_path)
    names = sorted(
        name for name in baseline if name.startswith(JOIN_BENCH_PREFIXES)
    )
    if not names:
        print(f"FAIL: no tracked join benchmarks in {baseline_path}")
        return 1
    failures = []
    for name in names:
        if name not in fresh:
            failures.append(f"{name} missing from {path}")
            continue
        want, got = baseline[name], fresh[name]
        output = "filter" if "filter" in want else "rows"
        print(f"{name}: evaluated {got['evaluated']:.0f} "
              f"(baseline {want['evaluated']:.0f}), {output} "
              f"{got[output]:.0f} (baseline {want[output]:.0f})")
        if got["evaluated"] > want["evaluated"]:
            failures.append(f"{name} evaluates more combinations")
        if got[output] != want[output]:
            failures.append(f"{name} changed its {output} count")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def check_runtime(path: str, min_ratio: float) -> int:
    with open(path) as f:
        doc = json.load(f)
    host_cpus = int(doc.get("host_cpus", 1))
    enforce = host_cpus >= 4
    if not enforce:
        print(f"host_cpus={host_cpus} < 4: parallel speedup not "
              "measurable on this host; reporting numbers only")

    failures = []

    trials = doc.get("micro", {}).get("trials_per_sec", {})
    t1, t4 = trials.get("1"), trials.get("4")
    if t1 and t4:
        ratio = t4 / t1
        print(f"micro trials/sec: 1t={t1:.1f}  4t={t4:.1f}  "
              f"speedup: {ratio:.2f}x (required >= {min_ratio}x)")
        if enforce and ratio < min_ratio:
            failures.append("micro trials_per_sec 4t/1t below threshold")
    else:
        print(f"micro trials_per_sec missing from {path}")
        if enforce:
            failures.append("micro trials_per_sec missing")

    passing = 0
    measured = 0
    for name, timing in sorted(doc.get("benches", {}).items()):
        t1s = timing.get("threads_1_s")
        t4s = timing.get("threads_4_s")
        if not t1s or not t4s:
            continue
        measured += 1
        ratio = t1s / t4s
        ok = ratio >= min_ratio
        passing += ok
        print(f"{name}: 1t={t1s:.2f}s  4t={t4s:.2f}s  "
              f"speedup: {ratio:.2f}x{'' if ok else '  (below threshold)'}")
    print(f"{passing}/{measured} sweep benches at >= {min_ratio}x "
          "(required: >= 2 benches)")
    if enforce and passing < 2:
        failures.append("fewer than 2 sweep benches met the speedup bar")

    trace = doc.get("micro", {}).get("trace", {})
    no_tracer = trace.get("unicasts_per_sec_no_tracer")
    disabled = trace.get("unicasts_per_sec_tracer_disabled")
    if no_tracer and disabled:
        overhead = max(0.0, 1.0 - disabled / no_tracer)
        print(f"tracer overhead (disabled): no_tracer={no_tracer:.0f}/s  "
              f"disabled={disabled:.0f}/s  overhead={overhead * 100:.2f}% "
              f"(allowed <= {TRACE_OVERHEAD_TOLERANCE * 100:.0f}%)")
        # Single-threaded measurement: enforced regardless of host_cpus.
        if overhead > TRACE_OVERHEAD_TOLERANCE:
            failures.append("disabled tracer overhead above tolerance")
    else:
        print(f"micro trace rates missing from {path}; "
              "tracer overhead check skipped")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def check_service(path: str) -> int:
    with open(path) as f:
        doc = json.load(f)
    service = doc.get("service")
    if service is None:
        print(f"FAIL: {path} has no 'service' section")
        return 1

    collection = service["collection"]
    snapshot = float(collection["snapshot_packets_per_epoch"])
    delta = float(collection["delta_steady_packets_per_epoch"])
    print(
        f"collection: delta steady {delta:.1f} pkts/epoch, "
        f"snapshot {snapshot:.1f} pkts/epoch "
        f"(ratio {delta / snapshot:.3f}, bound {SERVICE_COLLECTION_RATIO})"
    )
    if delta > SERVICE_COLLECTION_RATIO * snapshot:
        print(
            "FAIL: steady-state delta collection exceeds "
            f"{SERVICE_COLLECTION_RATIO}x the snapshot collection cost"
        )
        return 1

    point = next(
        (
            entry
            for entry in service["sweep"]
            if entry["queries"] == SERVICE_SHARING_POINT
        ),
        None,
    )
    if point is None:
        print(f"FAIL: sweep has no {SERVICE_SHARING_POINT}-query point")
        return 1
    shared = float(point["shared_steady_packets_per_epoch"])
    dedicated = float(point["dedicated_steady_packets_per_epoch"])
    print(
        f"sharing at {SERVICE_SHARING_POINT} queries: shared "
        f"{shared:.1f} pkts/epoch, dedicated {dedicated:.1f} pkts/epoch "
        f"(ratio {shared / dedicated:.3f}, bound {SERVICE_SHARING_RATIO})"
    )
    if shared > SERVICE_SHARING_RATIO * dedicated:
        print(
            "FAIL: shared phases amortize less than "
            f"{1.0 / SERVICE_SHARING_RATIO:.0f}x at "
            f"{SERVICE_SHARING_POINT} queries"
        )
        return 1
    print("OK: service sweep bounds hold")
    return 0


def check_scale(path: str) -> int:
    with open(path) as f:
        doc = json.load(f)
    sizes = doc.get("scale", {}).get("sizes", [])
    if not sizes:
        print(f"scale section missing or empty in {path}")
        return 1

    for entry in sizes:
        print(f"{entry['nodes']} nodes: exec {entry['exec_s']:.3f}s  "
              f"{entry['events_per_sec']:.0f} events/s  "
              f"maxrss {entry['maxrss_kb'] / 1024.0:.1f} MB")

    # Peak RSS is read after each run of an ascending sweep, so the largest
    # size's reading is the process-wide peak.
    largest = max(sizes, key=lambda entry: entry["nodes"])
    n = largest["nodes"]
    per_node = largest["maxrss_kb"] / n
    print(f"peak RSS at {n} nodes: {largest['maxrss_kb'] / 1024.0:.1f} MB "
          f"({per_node:.2f} KB/node, budget {RSS_PER_NODE_BUDGET_KB} "
          "KB/node)")
    if per_node > RSS_PER_NODE_BUDGET_KB:
        print("FAIL: peak RSS per node above budget")
        return 1
    return 0


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "--runtime":
        path = args[1]
        min_ratio = float(args[2]) if len(args) > 2 else 2.0
        return check_runtime(path, min_ratio)
    if args and args[0] == "--scale":
        return check_scale(args[1])
    if args and args[0] == "--service":
        return check_service(args[1])
    path = args[0]
    baseline = args[1] if len(args) > 1 else "BENCH_filterjoin.json"
    return check_join_counters(path, baseline)


if __name__ == "__main__":
    sys.exit(main())
