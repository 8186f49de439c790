#ifndef SENSJOIN_TESTBED_CHAOS_H_
#define SENSJOIN_TESTBED_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/result.h"
#include "sensjoin/obs/trace.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/fault_model.h"
#include "sensjoin/testbed/testbed.h"

namespace sensjoin::testbed {

/// Knobs of the seeded chaos generator. Every quantity is drawn from a
/// dedicated Rng stream keyed by `seed`, so a schedule is a pure function
/// of (deployment, params) and replays are exact.
struct ChaosParams {
  uint64_t seed = 1;

  /// Node crashes drawn uniformly over non-root in-tree nodes; a
  /// `recover_fraction` of them reboot after `recover_delay_s`.
  int num_crashes = 2;
  double recover_fraction = 0.5;
  double recover_delay_s = 0.02;

  /// Crashes that take effect before the first protocol phase (ApplyChaos
  /// drains the event queue over `prerun_horizon_s`): the node died between
  /// tree build and query launch, so its children hit a dead parent on
  /// their first upward send — the canonical in-network-repair scenario.
  /// Victims are distinct from the mid-run crash victims.
  int num_prerun_crashes = 1;
  double prerun_horizon_s = 0.001;

  /// Transient link blackouts on randomly chosen tree edges (the links the
  /// join actually uses), each lasting between `outage_min_s` and
  /// `outage_max_s`.
  int num_outages = 3;
  double outage_min_s = 0.02;
  double outage_max_s = 0.25;

  /// Sim-time window (from the schedule's start time) into which crash
  /// times and outage starts fall. Defaults are tuned to the simulator's
  /// phase timescale (milliseconds of sim time per phase), so events land
  /// while the join is actually in flight.
  double window_s = 0.05;

  /// Ambient per-fragment loss, plus `num_loss_bursts` links whose loss
  /// rate is raised to `burst_loss_rate` (transient interference bursts).
  double loss_rate = 0.02;
  int num_loss_bursts = 2;
  double burst_loss_rate = 0.7;

  /// Per-fragment corruption probability (0 keeps the corruption model —
  /// and its CRC trailer bytes — out entirely).
  double corruption_rate = 0.0;

  /// Link-layer ARQ installed with the plan.
  bool arq_enabled = true;
  int arq_max_retransmissions = 3;

  // --- Delivery-semantics axes (exactly-once layer). Direct plan knobs ---
  // --- that consume no schedule randomness: all-defaults schedules are ---
  // --- draw-for-draw identical to pre-existing ones. --------------------

  /// Ambient per-link probability that a delivered logical message is
  /// delivered a second time (ack-lost style duplication).
  double duplication_rate = 0.0;

  /// Per-message extra delivery latency drawn uniformly from [0,
  /// max_jitter_s]: later sends can overtake earlier ones (reordering).
  double max_jitter_s = 0.0;

  /// Cross-attempt replay: messages still in flight when an attempt aborts
  /// are re-delivered during the next attempt (stale-tag traffic).
  bool enable_replay = false;
};

/// Sim-time progress bounds for the no-stall liveness invariant. A zero
/// bound skips that check (the default-constructed value checks nothing).
struct LivenessBounds {
  /// Ceiling on the longest single span of any protocol phase (sim s).
  double max_phase_span_s = 0.0;
  /// Ceiling on the whole execution's response time (sim s).
  double max_total_s = 0.0;
};

/// A generated fault scenario: the installable FaultPlan plus the draws
/// that produced it, for assertions and reporting. The drawn loss bursts
/// are the plan's link_overrides: each keeps the ambient corruption and
/// duplication rates and raises only the loss.
struct ChaosSchedule {
  sim::FaultPlan plan;

  std::vector<sim::CrashEvent> crashes;        ///< also inside plan
  std::vector<sim::LinkOutageWindow> outages;  ///< also inside plan

  /// Nodes that crash and never reboot within the schedule.
  std::vector<sim::NodeId> permanently_down;

  /// How far ApplyChaos advances the event queue so pre-run crashes are in
  /// effect before the first protocol phase (0 skips the drain).
  double prerun_horizon_s = 0.0;
};

/// Draws a chaos schedule for `testbed`'s deployment, with event times
/// offset from the simulator's current time. Pure: does not touch the
/// testbed beyond reading topology and tree structure.
ChaosSchedule MakeChaosSchedule(Testbed& testbed, const ChaosParams& params);

/// Installs the schedule's fault plan on the testbed's simulator.
void ApplyChaos(Testbed& testbed, const ChaosSchedule& schedule);

/// The ground-truth join over every node's data, bypassing the network
/// entirely (same sensing semantics as the executors: one snapshot per
/// `epoch`).
join::JoinResult ComputeGroundTruth(Testbed& testbed,
                                    const query::AnalyzedQuery& q,
                                    uint64_t epoch);

/// Checks the self-healing soundness invariants of one execution against
/// the ground truth. Returns human-readable violations; empty means all
/// invariants hold.
///
///  1. No fabrication, exactly-once rows: every result row appears in the
///     ground truth AND with multiplicity no higher than the truth's —
///     duplicated deliveries must never duplicate a join row, phantom rows
///     must never appear (multiset containment; non-aggregate queries).
///  2. Certificate consistency: no contributing node is listed as excluded.
///  3. Certificate exactness (only when no corrupted payload was delivered
///     to the application): the result equals exactly the truth rows with
///     no contributor in the excluded set.
///  4. Trace cross-check (when `tracer` covers exactly the execution):
///     repair fragments, join-kind fragments, duplicated/replayed
///     fragments and total energy recomputed from the trace match the
///     CostReport.
///  5. No-stall liveness (when `liveness` sets a nonzero bound): every
///     phase span and the total response time stay under their sim-time
///     ceilings — recovery/repair loops must terminate, never spin.
std::vector<std::string> CheckInvariants(const join::JoinResult& truth,
                                         const join::ExecutionReport& report,
                                         const obs::Tracer* tracer = nullptr,
                                         const LivenessBounds* liveness =
                                             nullptr);

/// FNV-1a over every field of every trace event: any reordering, drop or
/// numeric drift between two runs changes the digest. Doubles are hashed
/// as bit patterns, so the digest certifies bit-identical floating-point
/// accumulation, not just closeness.
uint64_t TraceDigest(const obs::Tracer& tracer);

/// Every number a replay (or a cross-commit pinning check) must reproduce,
/// in one string: result, costs (doubles as bit patterns), self-healing
/// counters, the full completeness certificate, and — when `tracer` is
/// non-null — the trace digest.
std::string ExecutionFingerprint(const join::ExecutionReport& r,
                                 const obs::Tracer* tracer = nullptr);

/// Serializes a schedule (the params that generated it plus the concrete
/// draws: crashes, outages, loss-burst links with their rates, and the
/// permanently-down nodes) to a single JSON object — the reproducer format
/// the chaos swarm dumps on first violation. Re-running the swarm binary
/// with the same deployment and the embedded params regenerates the
/// schedule exactly.
std::string ChaosScheduleToJson(const ChaosParams& params,
                                const ChaosSchedule& schedule);

/// Greedy schedule minimizer: tries zeroing one fault axis at a time
/// (replay, jitter, duplication, corruption, loss bursts, ambient loss,
/// outages, mid-run crashes, pre-run crashes) and keeps each zeroing under
/// which `reproduces` still returns true. The result is a (locally) minimal
/// params whose schedule still triggers the violation.
ChaosParams MinimizeChaos(const ChaosParams& params,
                          const std::function<bool(const ChaosParams&)>&
                              reproduces);

}  // namespace sensjoin::testbed

#endif  // SENSJOIN_TESTBED_CHAOS_H_
