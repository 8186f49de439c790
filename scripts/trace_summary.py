#!/usr/bin/env python3
"""Reduce a sensjoin Chrome trace to per-phase / per-node cost tables.

Usage:
    trace_summary.py TRACE.json            # tables + cross-check
    trace_summary.py --validate TRACE.json # schema validation only
    trace_summary.py --top N TRACE.json    # rows in the per-node table

The input is the Perfetto-loadable JSON written by the bench harnesses'
`--trace=PATH` flag (schema "sensjoin-trace-v1"): protocol phases as
complete ("X") duration events, everything else as instant ("i") events
whose args carry the enclosing phase plus fragment/byte/energy payloads.

When the trace embeds a top-level "crossCheck" section (RunTracedExecution
and the LedgerExportTest trace always embed one), the per-phase sums
recomputed here are compared against the simulator's own CostReport
accounting: the join views and every ledger counter the events determine
(packets per kind, bytes, retransmissions, acks, corruptions, repair,
duplicate and replay traffic). Counts must match exactly (they are integer
event counts on both sides), energy within a small relative tolerance (the
simulator accumulates some costs in a different floating-point summation
order than the per-event trace records). The four counters no event
determines are printed as "not checked".
Any mismatch exits nonzero, making this the end-to-end proof that the
trace is a faithful itemization of the simulator's accounting.
"""
import argparse
import json
import sys

SCHEMA = "sensjoin-trace-v1"

PHASE_NAMES = [
    "None",
    "TreeBuild",
    "QueryDissemination",
    "JoinAttributeCollection",
    "BaseStationJoin",
    "FilterDissemination",
    "FinalResult",
    "ExternalCollection",
    "TreeRepair",
    "ServiceEpoch",
]

EVENT_NAMES = [
    "phase_begin",
    "phase_end",
    "frag_tx",
    "frag_rx",
    "frag_loss",
    "frag_corrupt",
    "ack_tx",
    "ack_rx",
    "retransmit",
    "message_drop",
    "recovery_request",
    "crash",
    "restore",
    "link_down",
    "link_up",
    "orphan_detected",
    "repair_request",
    "reattach",
    "deadline_expired",
    "degraded_result",
    "duplicate_rx",
    "stale_drop",
    "replay_rx",
]

# Message kinds whose transmissions CostReport counts as join processing.
JOIN_KINDS = ("collection", "filter", "final")

ENERGY_REL_TOL = 1e-6

# Ledger counters the trace events determine: (report key, per-phase sum
# from summarize(), exact). Integer counters must match exactly, energies
# within ENERGY_REL_TOL.
LEDGER_CHECKS = [
    ("packets_sent", "tx_frags", True),
    ("bytes_sent", "tx_bytes", True),
    ("retransmitted_packets", "retransmissions", True),
    ("ack_packets", "acks", True),
    ("ack_energy_mj", "ack_energy_mj", False),
    ("corrupted_packets", "corrupt_detected", True),
    ("undetected_corrupted_packets", "corrupt_undetected", True),
    ("repair_bytes_sent", "repair_tx_bytes", True),
    ("repair_energy_mj", "repair_energy_mj", False),
    ("duplicate_packets", "duplicates", True),
    ("duplicate_energy_mj", "duplicate_energy_mj", False),
    ("replayed_packets", "replays", True),
    ("replay_energy_mj", "replay_energy_mj", False),
]

# Ledger counters no trace event determines: a retransmit event carries no
# energy or per-attempt frame sizes, and CRC trailer bytes are folded into
# the frag_tx/frag_rx bytes and energy. Listed as "not checked".
NOT_DETERMINED = (
    "retransmit_energy_mj",
    "integrity_retransmit_energy_mj",
    "crc_bytes_sent",
    "crc_energy_mj",
)


def fail(msg: str) -> int:
    print(f"FAIL: {msg}")
    return 1


# ---------------------------------------------------------------------------
# Validation


def validate(doc: dict) -> int:
    """Checks the trace against the sensjoin-trace-v1 / Perfetto schema."""
    errors = []

    def err(msg):
        if len(errors) < 20:
            errors.append(msg)

    other = doc.get("otherData")
    if not isinstance(other, dict) or other.get("schema") != SCHEMA:
        err(f"otherData.schema != {SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print("FAIL: traceEvents missing or not a list")
        return 1
    if doc.get("displayTimeUnit") not in ("ms", "ns"):
        err("displayTimeUnit must be 'ms' or 'ns'")
    if not isinstance(doc.get("metrics"), dict):
        err("metrics section missing")

    named_threads = set()  # (pid, tid) with thread_name metadata
    used_threads = set()
    counts = {"X": 0, "i": 0, "M": 0}
    for idx, e in enumerate(events):
        where = f"traceEvents[{idx}]"
        if not isinstance(e, dict):
            err(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in counts:
            err(f"{where}: unsupported ph {ph!r}")
            continue
        counts[ph] += 1
        if not isinstance(e.get("name"), str):
            err(f"{where}: missing name")
            continue
        if ph == "M":
            if e["name"] == "thread_name":
                named_threads.add((e.get("pid"), e.get("tid")))
            continue
        pid, tid = e.get("pid"), e.get("tid")
        if pid not in (0, 1):
            err(f"{where}: pid must be 0 (protocol) or 1 (nodes)")
        if not isinstance(tid, int) or tid < 0:
            err(f"{where}: tid must be a non-negative int")
        if not isinstance(e.get("ts"), (int, float)) or e["ts"] < 0:
            err(f"{where}: ts must be a non-negative number")
        used_threads.add((pid, tid))
        if ph == "X":
            if e["name"] not in PHASE_NAMES:
                err(f"{where}: unknown phase {e['name']!r}")
            if not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0:
                err(f"{where}: X event needs dur >= 0")
        else:  # ph == "i"
            if e["name"] not in EVENT_NAMES:
                err(f"{where}: unknown event {e['name']!r}")
            if e.get("s") != "t":
                err(f"{where}: instant scope must be 't'")
            args = e.get("args")
            if not isinstance(args, dict):
                err(f"{where}: instant event needs args")
                continue
            if args.get("phase") not in PHASE_NAMES:
                err(f"{where}: args.phase invalid: {args.get('phase')!r}")
            for field in ("count", "detail", "bytes"):
                v = args.get(field)
                if not isinstance(v, int) or v < 0:
                    err(f"{where}: args.{field} must be a non-negative int")
            if not isinstance(args.get("energy_mj"), (int, float)):
                err(f"{where}: args.energy_mj must be a number")

    for pid, tid in sorted(t for t in used_threads if t[0] == 1):
        if (pid, tid) not in named_threads:
            err(f"node track pid={pid} tid={tid} has no thread_name metadata")
    if (0, None) not in named_threads and (0, 0) not in named_threads:
        err("protocol track has no thread_name metadata")

    if errors:
        for e in errors:
            print(f"FAIL: {e}")
        return 1
    print(f"OK: {len(events)} trace events "
          f"({counts['X']} spans, {counts['i']} instants, "
          f"{counts['M']} metadata); schema {SCHEMA}")
    return 0


# ---------------------------------------------------------------------------
# Summaries


def summarize(events: list) -> dict:
    """Per-phase totals from the instant events (node tracks only count
    once: per-node X spans and global spans are ignored here)."""
    phases = {}
    per_node = {}  # node -> {phase -> join tx frags}
    for e in events:
        if e.get("ph") != "i":
            continue
        args = e["args"]
        phase = args["phase"]
        p = phases.setdefault(phase, {
            "tx_frags": 0, "tx_bytes": 0, "tx_by_kind": {},
            "rx_frags": 0, "retransmissions": 0, "acks": 0,
            "ack_energy_mj": 0.0, "corrupt_detected": 0,
            "corrupt_undetected": 0, "repair_tx_bytes": 0,
            "repair_energy_mj": 0.0, "duplicates": 0,
            "duplicate_energy_mj": 0.0, "replays": 0,
            "replay_energy_mj": 0.0, "stale_drops": 0,
            "energy_mj": 0.0, "events": 0,
        })
        p["events"] += 1
        p["energy_mj"] += args["energy_mj"]
        name = e["name"]
        kind = args.get("msg", "?")
        if name in ("frag_tx", "frag_rx") and kind == "repair":
            p["repair_energy_mj"] += args["energy_mj"]
        if name == "frag_tx":
            p["tx_frags"] += args["count"]
            p["tx_bytes"] += args["bytes"]
            p["tx_by_kind"][kind] = p["tx_by_kind"].get(kind, 0) \
                + args["count"]
            if kind == "repair":
                p["repair_tx_bytes"] += args["bytes"]
            if kind in JOIN_KINDS:
                node = e["tid"]
                per_node.setdefault(node, {})
                per_node[node][phase] = per_node[node].get(phase, 0) \
                    + args["count"]
        elif name == "frag_rx":
            p["rx_frags"] += args["count"]
        elif name == "frag_corrupt":
            # detail = the corruptions the CRC check caught.
            p["corrupt_detected"] += args["detail"]
            p["corrupt_undetected"] += args["count"] - args["detail"]
        elif name == "retransmit":
            p["retransmissions"] += args["count"]
        elif name == "ack_tx":
            p["acks"] += args["count"]
            p["ack_energy_mj"] += args["energy_mj"]
        elif name == "ack_rx":
            p["ack_energy_mj"] += args["energy_mj"]
        elif name == "duplicate_rx":
            p["duplicates"] += args["count"]
            p["duplicate_energy_mj"] += args["energy_mj"]
        elif name == "replay_rx":
            p["replays"] += args["count"]
            p["replay_energy_mj"] += args["energy_mj"]
        elif name == "stale_drop":
            p["stale_drops"] += args["count"]
    return {"phases": phases, "per_node": per_node}


def print_tables(summary: dict, top: int) -> None:
    phases = summary["phases"]
    order = [p for p in PHASE_NAMES if p in phases]
    order += sorted(p for p in phases if p not in PHASE_NAMES)

    hdr = (f"{'phase':<24} {'events':>8} {'tx frags':>9} {'tx bytes':>10} "
           f"{'rx frags':>9} {'rtx':>6} {'acks':>6} {'energy mJ':>12}")
    print(hdr)
    print("-" * len(hdr))
    for name in order:
        p = phases[name]
        print(f"{name:<24} {p['events']:>8} {p['tx_frags']:>9} "
              f"{p['tx_bytes']:>10} {p['rx_frags']:>9} "
              f"{p['retransmissions']:>6} {p['acks']:>6} "
              f"{p['energy_mj']:>12.3f}")

    per_node = summary["per_node"]
    if not per_node:
        return
    print()
    totals = {n: sum(by.values()) for n, by in per_node.items()}
    ranked = sorted(totals, key=lambda n: (-totals[n], n))[:top]
    print(f"per-node join-processing tx fragments "
          f"(top {len(ranked)} of {len(per_node)} nodes):")
    hdr = f"{'node':>6} {'total':>7}  phases"
    print(hdr)
    print("-" * 48)
    for n in ranked:
        by = per_node[n]
        detail = ", ".join(f"{p}={by[p]}" for p in PHASE_NAMES if p in by)
        print(f"{n:>6} {totals[n]:>7}  {detail}")


# ---------------------------------------------------------------------------
# Cross-check


def cross_check(summary: dict, cross: dict) -> int:
    """Compares per-phase sums recomputed from the trace against the
    embedded CostReport totals: the join views and every ledger counter the
    events determine. Exact for packets/bytes, ENERGY_REL_TOL for energy.
    A report key that has no check here fails, so a counter added to the
    ledger cannot go unchecked silently."""
    phases = summary["phases"]
    per_node = summary["per_node"]
    failures = 0

    def expect(label, got, want, exact=True):
        nonlocal failures
        if want is None:
            print(f"  {label:<30} trace={got:<16} report=missing  MISMATCH")
            failures += 1
            return
        if exact:
            ok = got == want
        else:
            ok = abs(got - want) <= ENERGY_REL_TOL * max(abs(want), 1.0)
        mark = "ok" if ok else "MISMATCH"
        print(f"  {label:<30} trace={got:<16} report={want:<16} {mark}")
        failures += not ok

    for group, group_phases in sorted(cross["phase_map"].items()):
        report = cross[group]
        in_group = [phases.get(p) for p in group_phases]
        in_group = [p for p in in_group if p is not None]

        def tx_of(kind):
            return sum(p["tx_by_kind"].get(kind, 0) for p in in_group)

        def sum_of(field):
            return sum(p[field] for p in in_group)

        print(f"{group} ({'+'.join(group_phases)}):")
        expect("collection_packets", tx_of("collection"),
               report["collection_packets"])
        expect("filter_packets", tx_of("filter"), report["filter_packets"])
        expect("final_packets", tx_of("final"), report["final_packets"])
        expect("join_packets",
               tx_of("collection") + tx_of("filter") + tx_of("final"),
               report["join_packets"])
        # join_bytes is the ledger's bytes_sent delta: every transmitted
        # frame of every message kind (acks are itemized separately by the
        # simulator and never enter bytes_sent).
        expect("join_bytes", sum_of("tx_bytes"), report["join_bytes"])
        expect("energy_mj", sum_of("energy_mj"), report["energy_mj"],
               exact=False)
        for key, field, exact in LEDGER_CHECKS:
            expect(key, sum_of(field), report.get(key), exact)
        kinds = sorted(k for k in report if k.startswith("packets."))
        if not kinds:
            expect("packets.<kind>", 0, None)
        for key in kinds:
            expect(key, tx_of(key[len("packets."):]), report[key])
        for key in NOT_DETERMINED:
            print(f"  {key:<30} {'':<23}report={report.get(key)!s:<16} "
                  "not checked")

        want_per_node = report["per_node_packets"]
        got_per_node = [0] * len(want_per_node)
        for node, by in per_node.items():
            for phase, count in by.items():
                if phase in group_phases and node < len(got_per_node):
                    got_per_node[node] += count
        bad = [i for i in range(len(want_per_node))
               if got_per_node[i] != want_per_node[i]]
        mark = "ok" if not bad else f"MISMATCH at nodes {bad[:8]}"
        print(f"  {'per_node_packets':<30} "
              f"nodes={len(want_per_node):<16} "
              f"sum={sum(got_per_node):<16} {mark}")
        failures += bool(bad)

        handled = {"collection_packets", "filter_packets", "final_packets",
                   "join_packets", "join_bytes", "energy_mj",
                   "per_node_packets", *NOT_DETERMINED, *kinds}
        handled.update(key for key, _, _ in LEDGER_CHECKS)
        for key in sorted(set(report) - handled):
            print(f"  {key:<30} has no trace check  MISMATCH")
            failures += 1

    if failures:
        return fail(f"{failures} cross-check mismatches")
    print("cross-check: trace sums match CostReport totals")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Summarize / validate a sensjoin Chrome trace.")
    parser.add_argument("trace", help="trace JSON written by --trace=PATH")
    parser.add_argument("--validate", action="store_true",
                        help="schema validation only (CI)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the per-node table (default 10)")
    args = parser.parse_args()

    with open(args.trace) as f:
        doc = json.load(f)

    if args.validate:
        return validate(doc)

    other = doc.get("otherData", {})
    if other.get("schema") != SCHEMA:
        return fail(f"not a {SCHEMA} trace: {args.trace}")
    if other.get("dropped"):
        print(f"note: ring buffer dropped {other['dropped']} events; "
              "sums cover the retained tail only")

    summary = summarize(doc["traceEvents"])
    print_tables(summary, args.top)

    cross = doc.get("crossCheck")
    if cross is None:
        print("\nno crossCheck section embedded; skipping cross-check")
        return 0
    if other.get("dropped"):
        print("\ncrossCheck present but events were dropped; "
              "skipping cross-check")
        return 0
    print()
    return cross_check(summary, cross)


if __name__ == "__main__":
    sys.exit(main())
