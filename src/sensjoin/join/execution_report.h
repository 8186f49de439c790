#ifndef SENSJOIN_JOIN_EXECUTION_REPORT_H_
#define SENSJOIN_JOIN_EXECUTION_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sensjoin/join/result.h"
#include "sensjoin/join/stats.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::join {

/// What a degraded execution certifies about its partial result: exactly
/// which nodes' data is missing, and therefore exactly which result rows
/// can be trusted. A certified partial result contains precisely the truth
/// rows with no contributor in `excluded_nodes` — no more, no fewer — which
/// chaos-test invariants verify row by row (testbed/chaos.h).
struct CompletenessCertificate {
  /// True when any node's data was excluded. A false certificate promises
  /// the result is complete.
  bool degraded = false;

  /// Roots of the subtrees whose contributions were given up on (sorted,
  /// deduplicated; each the shallowest excluded node of its branch).
  std::vector<sim::NodeId> excluded_subtree_roots;

  /// Every node whose data is missing from the result (sorted: the members
  /// of the excluded subtrees plus nodes that never had a route).
  std::vector<sim::NodeId> excluded_nodes;

  /// Orphans that were successfully re-attached by in-network repair (their
  /// data IS in the result; sorted, informational).
  std::vector<sim::NodeId> repaired_roots;

  /// Coverage bound: nodes whose data reached the base station over the
  /// total field.
  int reporting_nodes = 0;
  int total_nodes = 0;

  double coverage() const {
    return total_nodes > 0
               ? static_cast<double>(reporting_nodes) / total_nodes
               : 1.0;
  }

  bool IsExcluded(sim::NodeId id) const {
    return std::binary_search(excluded_nodes.begin(), excluded_nodes.end(),
                              id);
  }
};

/// Outcome of one query execution by either executor.
struct ExecutionReport {
  JoinResult result;
  CostReport cost;

  /// Cumulative costs over the whole Execute call: every attempt (including
  /// the aborted ones), tree rebuilds between attempts, and repair traffic.
  /// Equal to `cost` for single-attempt executions; the honest denominator
  /// for the repair-vs-full-re-execution energy tradeoff.
  CostReport total_cost;

  bool success = false;
  int attempts = 1;  ///< 1 + re-executions after link failures

  /// Graceful-degradation outcome. With degradation disabled (the default)
  /// the certificate always reports complete coverage of the reachable
  /// field; with it enabled, a degraded execution still has success ==
  /// true but certificate.degraded set and the excluded nodes named.
  CompletenessCertificate certificate;

  /// In-network tree-repair outcome (zero unless repair is enabled).
  size_t repairs_attempted = 0;
  size_t repairs_succeeded = 0;

  /// Phase-watchdog expirations that forced an escalation.
  size_t watchdog_expirations = 0;

  /// Phase-level recovery re-requests issued (missing subtree contributions
  /// re-pulled without a full re-execution).
  size_t recovery_requests = 0;

  /// Logical messages delivered with an undetected-corrupt payload (only
  /// possible with the CRC trailer disabled). Each either degraded into a
  /// dropped contribution (the hardened decoder rejected the damage) or a
  /// wrong-but-safe structure.
  size_t corrupted_deliveries = 0;

  // Delivery-validation outcomes (exactly-once layer; cumulative over every
  // attempt of this Execute call). All zero on fault-free runs.

  /// Deliveries of an already-processed (attempt, link, seq) tag the
  /// idempotent receive path dropped: simulator-duplicated messages and
  /// same-tag recovery resends of a message that did arrive.
  size_t duplicate_deliveries = 0;

  /// Deliveries carrying a stale attempt id (cross-attempt replays and
  /// other stragglers of aborted attempts) rejected by the validator.
  size_t stale_messages_dropped = 0;

  /// In-order-eligible deliveries that arrived ahead of an earlier
  /// outstanding sequence number on their link (delay jitter); buffered and
  /// logically applied in order rather than dropped.
  size_t reordered_messages = 0;

  // Pre-computation statistics (zero for the external join).
  size_t collected_points = 0;  ///< distinct quantized join-attribute tuples
  size_t filter_points = 0;     ///< points surviving the filter join
  size_t treecut_exited_nodes = 0;  ///< nodes that finished via Treecut
  size_t delta_changed_nodes = 0;   ///< continuous mode: nodes whose key moved
  size_t delta_resyncs = 0;  ///< continuous mode: lost hops of the group's
                             ///< phases re-pulled (recovery_requests)

  /// Continuous service only: number of co-admitted queries that shared
  /// this execution's collection/dissemination/final phases (including this
  /// one; 1 = dedicated). `cost` is the shared group cost, paid once for
  /// the whole group, not per query.
  size_t shared_group_size = 1;
  size_t final_tuples_shipped = 0;  ///< complete tuples sent in the final
                                    ///< phase (Treecut tuples excluded)
  size_t candidate_tuples = 0;      ///< tuples available at the base station
                                    ///< for the final join

  /// Simulated wall-clock span of the execution (informational; the paper's
  /// response-time tradeoff, Sec. VII).
  double response_time_s = 0.0;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_EXECUTION_REPORT_H_
