#include "sensjoin/net/flooding.h"

#include <algorithm>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/net/topology.h"
#include "sensjoin/sim/radio.h"

namespace sensjoin::net {
namespace {

int Reached(const std::vector<char>& reached) {
  return static_cast<int>(std::count(reached.begin(), reached.end(), 1));
}

int QueryFloodReach(sim::Simulator& sim, size_t query_bytes) {
  return Reached(Flood(sim, 0, query_bytes, sim::MessageKind::kQuery));
}

sim::Simulator RandomField(int num_nodes, double side_m) {
  Rng rng(4);
  PlacementParams params;
  params.num_nodes = num_nodes;
  params.area_width_m = side_m;
  params.area_height_m = side_m;
  auto connected = GenerateConnectedPlacement(params, rng);
  EXPECT_TRUE(connected.ok()) << connected.status();
  return sim::Simulator(std::move(connected->radio));
}

TEST(FloodingTest, ReachesAllConnectedNodesWithOneBroadcastEach) {
  sim::Simulator sim = RandomField(200, 400);
  EXPECT_EQ(QueryFloodReach(sim, 20), 200);
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
  EXPECT_EQ(Flood(sim, 0, 10, sim::MessageKind::kQuery),
            (std::vector<char>{1, 1, 0}));
}

TEST(FloodingTest, LargeQueriesCostMultiplePacketsPerHop) {
  std::vector<Point> pos = {{0, 0}, {40, 0}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  QueryFloodReach(sim, 100);  // 3 fragments at 40-byte capacity
  EXPECT_EQ(sim.stats(0).packets_sent, 3u);
}

/// Every call is a flood of its own: no suppression memory from an earlier
/// flood mutes a re-flood (a query re-executed after an aborted attempt).
TEST(FloodingTest, RefloodReachesEveryNodeAgain) {
  sim::Simulator sim = RandomField(120, 320);
  EXPECT_EQ(QueryFloodReach(sim, 20), 120);
  EXPECT_EQ(QueryFloodReach(sim, 20), 120);
  EXPECT_EQ(sim.totals().packets(sim::MessageKind::kQuery), 240u);
}

}  // namespace
}  // namespace sensjoin::net
