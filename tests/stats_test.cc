#include "sensjoin/join/stats.h"

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"

namespace sensjoin::join {
namespace {

sim::Simulator MakeChain() {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  return sim::Simulator(sim::Radio(pos, 50.0));
}

void Send(sim::Simulator& sim, sim::NodeId src, sim::NodeId dst,
          sim::MessageKind kind, size_t bytes) {
  sim::Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.kind = kind;
  msg.payload_bytes = bytes;
  sim.SendUnicast(std::move(msg));
}

TEST(StatsSnapshotTest, DeltaIsolatesOneExecution) {
  sim::Simulator sim = MakeChain();
  // Pre-existing traffic that must not leak into the delta.
  Send(sim, 0, 1, sim::MessageKind::kCollection, 10);
  Send(sim, 1, 2, sim::MessageKind::kFinal, 10);

  const StatsSnapshot snapshot(sim);
  Send(sim, 1, 0, sim::MessageKind::kCollection, 10);
  Send(sim, 2, 1, sim::MessageKind::kFilter, 100);  // 3 fragments
  Send(sim, 2, 1, sim::MessageKind::kFinal, 10);
  Send(sim, 1, 2, sim::MessageKind::kBeacon, 4);  // excluded from join cost

  const CostReport report = snapshot.DeltaTo(sim);
  EXPECT_EQ(report.phases.collection_packets, 1u);
  EXPECT_EQ(report.phases.filter_packets, 3u);
  EXPECT_EQ(report.phases.final_packets, 1u);
  EXPECT_EQ(report.join_packets, 5u);
  EXPECT_EQ(report.per_node_packets[0], 0u);
  EXPECT_EQ(report.per_node_packets[1], 1u);
  EXPECT_EQ(report.per_node_packets[2], 4u);  // beacon not counted
  EXPECT_EQ(report.max_node_packets(), 4u);
  EXPECT_GT(report.energy_mj, 0.0);
}

TEST(StatsSnapshotTest, EmptyDeltaIsZero) {
  sim::Simulator sim = MakeChain();
  Send(sim, 0, 1, sim::MessageKind::kFinal, 10);
  const StatsSnapshot snapshot(sim);
  const CostReport report = snapshot.DeltaTo(sim);
  EXPECT_EQ(report.join_packets, 0u);
  EXPECT_TRUE(static_cast<const sim::Ledger&>(report) == sim::Ledger{});
  EXPECT_EQ(report.max_node_packets(), 0u);
}

TEST(PhaseCostsTest, TotalSumsPhases) {
  PhaseCosts phases;
  phases.collection_packets = 10;
  phases.filter_packets = 5;
  phases.final_packets = 3;
  EXPECT_EQ(phases.total(), 18u);
}

}  // namespace
}  // namespace sensjoin::join
