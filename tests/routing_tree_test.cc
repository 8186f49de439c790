#include "sensjoin/net/routing_tree.h"

#include <algorithm>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/net/topology.h"
#include "sensjoin/sim/radio.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::net {
namespace {

/// BFS hop counts over up links (ground truth for the beaconing protocol).
std::vector<int> BfsHops(const sim::Radio& radio, sim::NodeId root) {
  std::vector<int> hops(radio.num_nodes(), -1);
  std::queue<sim::NodeId> frontier;
  hops[root] = 0;
  frontier.push(root);
  while (!frontier.empty()) {
    const sim::NodeId u = frontier.front();
    frontier.pop();
    for (sim::NodeId v : radio.Neighbors(u)) {
      if (hops[v] < 0 && radio.LinkUp(u, v)) {
        hops[v] = hops[u] + 1;
        frontier.push(v);
      }
    }
  }
  return hops;
}

sim::Simulator MakeRandomSim(uint64_t seed, int n = 300) {
  Rng rng(seed);
  PlacementParams params;
  params.num_nodes = n;
  params.area_width_m = 500;
  params.area_height_m = 500;
  auto connected = GenerateConnectedPlacement(params, rng);
  return sim::Simulator(std::move(connected->radio));
}

class RoutingTreeSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoutingTreeSeedTest, BeaconedTreeHasMinimalHopCounts) {
  sim::Simulator sim = MakeRandomSim(GetParam());
  RoutingTree tree = RoutingTree::Build(sim, 0);
  const std::vector<int> bfs = BfsHops(sim.radio(), 0);
  for (int i = 0; i < sim.num_nodes(); ++i) {
    EXPECT_EQ(tree.hop_count(i), bfs[i]) << "node " << i;
  }
  EXPECT_EQ(tree.num_reachable(), sim.num_nodes());
}

TEST_P(RoutingTreeSeedTest, ParentChildConsistency) {
  sim::Simulator sim = MakeRandomSim(GetParam());
  RoutingTree tree = RoutingTree::Build(sim, 0);
  EXPECT_EQ(tree.parent(0), sim::kInvalidNode);
  for (int i = 1; i < sim.num_nodes(); ++i) {
    const sim::NodeId p = tree.parent(i);
    ASSERT_NE(p, sim::kInvalidNode);
    // Parent is a radio neighbor one hop closer to the root.
    EXPECT_TRUE(sim.radio().InRange(i, p));
    EXPECT_EQ(tree.hop_count(p) + 1, tree.hop_count(i));
    const auto& siblings = tree.children(p);
    EXPECT_TRUE(std::find(siblings.begin(), siblings.end(), i) !=
                siblings.end());
  }
}

TEST_P(RoutingTreeSeedTest, SubtreeSizesSumCorrectly) {
  sim::Simulator sim = MakeRandomSim(GetParam());
  RoutingTree tree = RoutingTree::Build(sim, 0);
  EXPECT_EQ(tree.subtree_size(0), sim.num_nodes());
  for (int i = 0; i < sim.num_nodes(); ++i) {
    int children_sum = 1;
    for (sim::NodeId c : tree.children(i)) children_sum += tree.subtree_size(c);
    EXPECT_EQ(tree.subtree_size(i), children_sum);
  }
}

TEST_P(RoutingTreeSeedTest, CollectionOrderVisitsChildrenBeforeParents) {
  sim::Simulator sim = MakeRandomSim(GetParam());
  RoutingTree tree = RoutingTree::Build(sim, 0);
  std::vector<int> position(sim.num_nodes(), -1);
  const auto& order = tree.collection_order();
  ASSERT_EQ(static_cast<int>(order.size()), tree.num_reachable());
  for (size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (int i = 1; i < sim.num_nodes(); ++i) {
    EXPECT_LT(position[i], position[tree.parent(i)]);
  }
  EXPECT_EQ(order.back(), 0);  // root last
  EXPECT_EQ(tree.dissemination_order().front(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingTreeSeedTest,
                         ::testing::Values(2, 13, 77, 1001));

TEST(RoutingTreeTest, BeaconCostsAreAccountedAsBeacons) {
  sim::Simulator sim = MakeRandomSim(5, 100);
  RoutingTree::Build(sim, 0);
  EXPECT_GT(sim.totals().packets(sim::MessageKind::kBeacon), 0u);
  EXPECT_EQ(sim.totals().packets(sim::MessageKind::kCollection), 0u);
}

TEST(RoutingTreeTest, RepairAfterLinkFailure) {
  // Chain 0-1-2 plus a detour 0-3-2: failing 1-2 must reroute 2 via 3.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {40, 30}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  RoutingTree tree = RoutingTree::Build(sim, 0);
  EXPECT_EQ(tree.parent(2), 1);  // closer tie-break picks 1 over 3
  sim.radio().FailLink(1, 2);
  RoutingTree repaired = RoutingTree::Build(sim, 0);
  EXPECT_EQ(repaired.parent(2), 3);
  EXPECT_EQ(repaired.hop_count(2), 2);
  EXPECT_EQ(repaired.num_reachable(), 4);
}

TEST(RoutingTreeTest, UnreachableNodesAreMarked) {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {500, 500}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  RoutingTree tree = RoutingTree::Build(sim, 0);
  EXPECT_FALSE(tree.InTree(2));
  EXPECT_EQ(tree.hop_count(2), -1);
  EXPECT_EQ(tree.num_reachable(), 2);
  EXPECT_EQ(tree.subtree_size(2), 0);
}

}  // namespace
}  // namespace sensjoin::net
