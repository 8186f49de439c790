#ifndef SENSJOIN_JOIN_EXTERNAL_JOIN_H_
#define SENSJOIN_JOIN_EXTERNAL_JOIN_H_

#include <cstdint>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

/// The state-of-the-art general-purpose baseline (Sec. I, VI): every node
/// ships its (projected, selection-filtered) tuple to the base station
/// along the routing tree, tuples are aggregated into packets as they move
/// up, and the base station computes the join. Optimal when selectivity is
/// very low; wasteful otherwise.
class ExternalJoinExecutor {
 public:
  /// `sim`, `data` and the initial `tree` must outlive the executor. The
  /// executor rebuilds the tree (CTP repair) and retries after link
  /// failures, up to `config.max_retries`.
  ExternalJoinExecutor(sim::Simulator& sim, net::RoutingTree tree,
                       const data::NetworkData& data,
                       ProtocolConfig config = ProtocolConfig{});

  /// Runs the query once over snapshot `epoch`. Returns an error if the
  /// query cannot be executed (no reachable nodes, repeated failures).
  StatusOr<ExecutionReport> Execute(const query::AnalyzedQuery& q,
                                    uint64_t epoch);

  const net::RoutingTree& tree() const { return tree_; }

 private:
  sim::Simulator& sim_;
  net::RoutingTree tree_;
  const data::NetworkData& data_;
  ProtocolConfig config_;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_EXTERNAL_JOIN_H_
