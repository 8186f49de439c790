#include "sensjoin/net/flooding.h"

#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/net/topology.h"
#include "sensjoin/sim/radio.h"

namespace sensjoin::net {
namespace {

TEST(FloodingTest, ReachesAllConnectedNodesWithOneBroadcastEach) {
  Rng rng(4);
  PlacementParams params;
  params.num_nodes = 200;
  params.area_width_m = 400;
  params.area_height_m = 400;
  auto placement = GenerateConnectedPlacement(params, rng);
  ASSERT_TRUE(placement.ok());
  sim::Simulator sim{sim::Radio(placement->positions, params.range_m)};
  const int reached = FloodQuery(sim, 0, 20);
  EXPECT_EQ(reached, 200);
  // Simple flooding: every node rebroadcasts exactly once.
  EXPECT_EQ(sim.totals().packets(sim::MessageKind::kQuery), 200u);
  for (int i = 0; i < sim.num_nodes(); ++i) {
    EXPECT_EQ(sim.stats(i).packets_sent_by_kind[static_cast<size_t>(
                  sim::MessageKind::kQuery)],
              1u);
  }
}

TEST(FloodingTest, DisconnectedNodesAreNotReached) {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {1000, 1000}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  EXPECT_EQ(FloodQuery(sim, 0, 10), 2);
}

TEST(FloodingTest, LargeQueriesCostMultiplePacketsPerHop) {
  std::vector<Point> pos = {{0, 0}, {40, 0}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  FloodQuery(sim, 0, 100);  // 3 fragments at 40-byte capacity
  EXPECT_EQ(sim.stats(0).packets_sent, 3u);
}

/// Regression for the re-flood bug: suppression state is node-resident, so
/// a second flood through the same Flooder is smothered — only the root
/// broadcasts (every other node believes it already forwarded this query)
/// and just the root's direct neighbors hear anything. ResetSuppression is
/// what arms the network for a fresh epoch.
TEST(FloodingTest, RefloodWithoutResetIsSuppressed) {
  Rng rng(4);
  PlacementParams params;
  params.num_nodes = 200;
  params.area_width_m = 400;
  params.area_height_m = 400;
  auto placement = GenerateConnectedPlacement(params, rng);
  ASSERT_TRUE(placement.ok());
  sim::Simulator sim{sim::Radio(placement->positions, params.range_m)};
  Flooder flooder(sim);

  const int first = flooder.Flood(0, 20, sim::MessageKind::kQuery);
  EXPECT_EQ(first, 200);

  // No reset: nodes still remember forwarding, so the flood dies at the
  // first hop — the root plus its direct neighbors.
  const int stale = flooder.Flood(0, 20, sim::MessageKind::kQuery);
  const int direct_neighbors =
      static_cast<int>(sim.radio().Neighbors(0).size());
  EXPECT_EQ(stale, 1 + direct_neighbors);
  EXPECT_LT(stale, first);

  // Reset re-arms every node; the same flooder reaches everyone again.
  flooder.ResetSuppression();
  EXPECT_EQ(flooder.Flood(0, 20, sim::MessageKind::kQuery), 200);
}

/// A fresh Flooder (what FloodPayload/FloodQuery construct per call) is
/// never suppressed by earlier floods: historical free-function behavior.
TEST(FloodingTest, FreshFlooderIsUnaffectedByEarlierFloods) {
  Rng rng(4);
  PlacementParams params;
  params.num_nodes = 120;
  params.area_width_m = 320;
  params.area_height_m = 320;
  auto placement = GenerateConnectedPlacement(params, rng);
  ASSERT_TRUE(placement.ok());
  sim::Simulator sim{sim::Radio(placement->positions, params.range_m)};
  EXPECT_EQ(FloodQuery(sim, 0, 20), 120);
  EXPECT_EQ(FloodQuery(sim, 0, 20), 120);
}

}  // namespace
}  // namespace sensjoin::net
