#include "sensjoin/join/stats.h"

#include <algorithm>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {
namespace {

uint64_t JoinPacketsOfNode(const sim::NodeStats& s) {
  return s.packets_sent_by_kind[static_cast<size_t>(
             sim::MessageKind::kCollection)] +
         s.packets_sent_by_kind[static_cast<size_t>(
             sim::MessageKind::kFilter)] +
         s.packets_sent_by_kind[static_cast<size_t>(sim::MessageKind::kFinal)];
}

}  // namespace

uint64_t CostReport::max_node_packets() const {
  uint64_t m = 0;
  for (uint64_t v : per_node_packets) m = std::max(m, v);
  return m;
}

StatsSnapshot::StatsSnapshot(const sim::Simulator& sim)
    : totals_(sim.totals()) {
  per_node_join_packets_.resize(sim.num_nodes());
  for (int i = 0; i < sim.num_nodes(); ++i) {
    per_node_join_packets_[i] = JoinPacketsOfNode(sim.stats(i));
  }
}

CostReport StatsSnapshot::DeltaTo(const sim::Simulator& sim) const {
  CostReport report;
  static_cast<sim::Ledger&>(report) = sim.totals() - totals_;
  report.phases = {
      .collection_packets = report.packets(sim::MessageKind::kCollection),
      .filter_packets = report.packets(sim::MessageKind::kFilter),
      .final_packets = report.packets(sim::MessageKind::kFinal)};
  report.join_packets = report.phases.total();
  SENSJOIN_CHECK_EQ(static_cast<int>(per_node_join_packets_.size()),
                    sim.num_nodes());
  report.per_node_packets.resize(sim.num_nodes());
  for (int i = 0; i < sim.num_nodes(); ++i) {
    report.per_node_packets[i] =
        JoinPacketsOfNode(sim.stats(i)) - per_node_join_packets_[i];
  }
  return report;
}

}  // namespace sensjoin::join
