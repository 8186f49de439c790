#ifndef SENSJOIN_JOIN_SENS_JOIN_H_
#define SENSJOIN_JOIN_SENS_JOIN_H_

#include <cstdint>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

class FaultLadder;

/// SENS-Join (Sec. IV): the energy-efficient general-purpose join. An
/// execution runs three tree phases:
///
///  1a. Join-Attribute-Collection with Treecut: leaves ship complete tuples
///      while the volume stays below Dmax; the first node over the
///      threshold stores them as a proxy and switches to the compact
///      join-attribute structure (Fig. 2).
///  1b. Filter-Dissemination with Selective Filter Forwarding: the base
///      station joins the quantized join-attribute tuples conservatively,
///      and the resulting filter is pruned against each node's stored
///      subtree structure on the way down (Fig. 3).
///   2. Final-Result-Computation: only nodes (and proxies) whose
///      join-attribute tuple is in the filter ship complete tuples; the
///      base station computes the exact result.
///
/// Phases 1b and 2 are join/phases.h, shared with the continuous delta
/// executor. Failures escalate through the FaultLadder (fault_ladder.h):
/// phase-level recovery, watchdog, in-network repair, graceful degradation,
/// each switched by ProtocolConfig; a failure past them aborts the attempt,
/// and the tree is rebuilt and the query re-executed (Sec. IV-F).
class SensJoinExecutor {
 public:
  /// `sim` and `data` must outlive the executor. `quantization` supplies
  /// the per-attribute ranges/resolutions fixed for the environment.
  SensJoinExecutor(sim::Simulator& sim, net::RoutingTree tree,
                   const data::NetworkData& data,
                   QuantizationConfig quantization,
                   ProtocolConfig config = ProtocolConfig{});

  /// Runs the query once over snapshot `epoch`.
  StatusOr<ExecutionReport> Execute(const query::AnalyzedQuery& q,
                                    uint64_t epoch);

  const net::RoutingTree& tree() const { return tree_; }
  const ProtocolConfig& config() const { return config_; }

 private:
  /// One attempt over `ladder` (fault_ladder.h): true on success, false on
  /// a persistent failure that needs a tree rebuild (retryable), or a real
  /// error (bad quantization config etc.).
  StatusOr<bool> ExecuteAttempt(const query::AnalyzedQuery& q, uint64_t epoch,
                                FaultLadder& ladder, ExecutionReport* report);

  sim::Simulator& sim_;
  net::RoutingTree tree_;
  const data::NetworkData& data_;
  QuantizationConfig quantization_;
  ProtocolConfig config_;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_SENS_JOIN_H_
