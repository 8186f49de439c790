#ifndef SENSJOIN_JOIN_STATS_H_
#define SENSJOIN_JOIN_STATS_H_

#include <cstdint>
#include <vector>

#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

/// Join-processing transmissions broken down by protocol step (Fig. 15).
/// The external join reports everything under `final`.
struct PhaseCosts {
  uint64_t collection_packets = 0;  ///< step 1a (incl. Treecut full tuples)
  uint64_t filter_packets = 0;      ///< step 1b
  uint64_t final_packets = 0;       ///< final result computation

  uint64_t total() const {
    return collection_packets + filter_packets + final_packets;
  }

  bool operator==(const PhaseCosts&) const = default;
};

/// Communication costs of one query execution: the simulator ledger's
/// difference over the execution (packets, bytes and energy of all
/// traffic, beacons and query floods included, with every fault overhead
/// itemized; sim::Ledger) plus the join-specific views. `per_node_packets`
/// counts join-processing transmissions per node (the paper's per-node
/// metric, Fig. 11).
struct CostReport : sim::Ledger {
  PhaseCosts phases;
  uint64_t join_packets = 0;  ///< == phases.total()
  std::vector<uint64_t> per_node_packets;

  uint64_t max_node_packets() const;

  bool operator==(const CostReport&) const = default;
};

/// Captures simulator counters so that a later delta isolates one
/// execution's costs.
class StatsSnapshot {
 public:
  explicit StatsSnapshot(const sim::Simulator& sim);

  /// Costs accrued on `sim` since this snapshot was taken.
  CostReport DeltaTo(const sim::Simulator& sim) const;

 private:
  sim::Ledger totals_;
  std::vector<uint64_t> per_node_join_packets_;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_STATS_H_
