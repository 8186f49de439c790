#ifndef SENSJOIN_JOIN_ALT_BASELINES_H_
#define SENSJOIN_JOIN_ALT_BASELINES_H_

#include <cstdint>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

/// Specialized join methods from the related work (Sec. II), generalized to
/// arbitrary tuple placements so they can run on the paper's workloads at
/// all. The paper reports that the external join outperforms them in every
/// experiment because their efficiency assumptions (two small, nearby
/// regions; very high selectivity) do not hold for general-purpose queries;
/// these executors let the benchmark suite reproduce that comparison.
///
/// Both run on join::RunAttempts (join/fault_ladder.h) with recovery budget
/// 0, like the external join: every unicast carries an exactly-once tag, a
/// persistent failure rebuilds the executor's copy of the tree and
/// re-executes up to `config.max_retries` times, and a successful report
/// carries a CompletenessCertificate. `sim` and `data` must outlive the
/// executor.

/// Semi-join in the style of Coman et al. [8]: the join-attribute values of
/// the first relation are collected and then broadcast over the nodes of
/// the second relation (with arbitrary placements: flooded through the
/// network); nodes of the second relation that find a partner ship their
/// complete tuples, and the first relation ships its complete tuples
/// unconditionally, through the tuple convergecast (ConvergecastTuples in
/// join/phases.h) with the ladder's tuple rescue. The key collection
/// aborts the attempt on a lost hop. The base station computes the result.
class SemiJoinExecutor {
 public:
  SemiJoinExecutor(sim::Simulator& sim, net::RoutingTree tree,
                   const data::NetworkData& data,
                   ProtocolConfig config = ProtocolConfig{});

  StatusOr<ExecutionReport> Execute(const query::AnalyzedQuery& q,
                                    uint64_t epoch);

 private:
  sim::Simulator& sim_;
  net::RoutingTree tree_;
  const data::NetworkData& data_;
  ProtocolConfig config_;
};

/// Mediated join in the style of Coman et al. [8]: all input tuples are
/// routed to a mediator node inside the network (the participant closest to
/// the centroid of the contributing nodes), which computes the join and
/// ships the result rows to the base station. Efficient only when the
/// inputs are co-located and the result is small. Its collection runs on
/// a tree rooted at the mediator, not the ladder's, so a lost hop aborts
/// the attempt instead of being rescued.
class MediatedJoinExecutor {
 public:
  MediatedJoinExecutor(sim::Simulator& sim, net::RoutingTree tree,
                       const data::NetworkData& data,
                       ProtocolConfig config = ProtocolConfig{});

  StatusOr<ExecutionReport> Execute(const query::AnalyzedQuery& q,
                                    uint64_t epoch);

  /// The mediator chosen by the last Execute call.
  sim::NodeId last_mediator() const { return last_mediator_; }

 private:
  sim::Simulator& sim_;
  net::RoutingTree tree_;
  const data::NetworkData& data_;
  ProtocolConfig config_;
  sim::NodeId last_mediator_ = sim::kInvalidNode;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_ALT_BASELINES_H_
