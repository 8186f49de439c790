// Unit tests of in-network tree repair: the RoutingTree repair mutators,
// orphan detection, repair-request wire hardening, loop freedom, and the
// kRepair cost itemization. Topologies are small hand-placed fields where
// every distance (and therefore every tree) is known exactly.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/net/tree_maintenance.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::net {
namespace {

// Diamond: 1 and 2 both one hop from root 0; 3 reaches only 1 and 2 and
// attaches under 1 (equal hops and distance, lower id wins).
sim::Simulator MakeDiamond() {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {0, 40}, {40, 40}};
  return sim::Simulator(sim::Radio(pos, 50.0));
}

// Chain 0 - 1 - 2 - 3: node 1 is the only route for everything behind it.
sim::Simulator MakeChain4() {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {120, 0}};
  return sim::Simulator(sim::Radio(pos, 50.0));
}

// ---- RoutingTree repair mutators ----------------------------------------

TEST(RoutingTreeMutatorsTest, SubtreeNodesListsParentsBeforeChildren) {
  sim::Simulator sim = MakeChain4();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  EXPECT_EQ(tree.SubtreeNodes(1), (std::vector<sim::NodeId>{1, 2, 3}));
  EXPECT_EQ(tree.SubtreeNodes(3), (std::vector<sim::NodeId>{3}));
  EXPECT_EQ(tree.SubtreeNodes(0).size(), 4u);
  EXPECT_TRUE(tree.IsAncestor(0, 3));
  EXPECT_TRUE(tree.IsAncestor(2, 2));
  EXPECT_FALSE(tree.IsAncestor(3, 2));
}

TEST(RoutingTreeMutatorsTest, ReparentRederivesHopsAndOrders) {
  sim::Simulator sim = MakeDiamond();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  ASSERT_EQ(tree.parent(3), 1);
  ASSERT_EQ(tree.hop_count(3), 2);

  tree.Reparent(3, 2);
  EXPECT_EQ(tree.parent(3), 2);
  EXPECT_EQ(tree.hop_count(3), 2);
  EXPECT_EQ(tree.subtree_size(2), 2);
  EXPECT_EQ(tree.subtree_size(1), 1);
  EXPECT_TRUE(tree.children(1).empty());
  EXPECT_EQ(tree.children(2), (std::vector<sim::NodeId>{3}));
  // Orders still cover every reachable node, children before parents.
  EXPECT_EQ(tree.collection_order().size(), 4u);
  EXPECT_EQ(tree.collection_order().back(), 0);
}

TEST(RoutingTreeMutatorsTest, ReparentMovesWholeSubtreeAndUpdatesDepths) {
  sim::Simulator sim = MakeChain4();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  // Pretend 1 found a better parent at depth 2 somewhere; hops of its
  // descendants must shift with it. Reattach 2 (subtree {2,3}) under 0:
  // distances don't matter to the mutator, only the structure does.
  tree.Reparent(2, 0);
  EXPECT_EQ(tree.parent(2), 0);
  EXPECT_EQ(tree.hop_count(2), 1);
  EXPECT_EQ(tree.hop_count(3), 2);
  EXPECT_EQ(tree.subtree_size(0), 4);
  EXPECT_EQ(tree.subtree_size(1), 1);
}

TEST(RoutingTreeMutatorsTest, DetachMakesSubtreeUnreachable) {
  sim::Simulator sim = MakeChain4();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  tree.Detach(2);
  EXPECT_FALSE(tree.InTree(2));
  EXPECT_FALSE(tree.InTree(3));
  EXPECT_EQ(tree.hop_count(3), -1);
  EXPECT_EQ(tree.num_reachable(), 2);
  EXPECT_EQ(tree.UnreachableNodes(), (std::vector<sim::NodeId>{2, 3}));
  EXPECT_EQ(tree.collection_order().size(), 2u);
}

// Satellite regression: Build on a partially-connected field skips the
// parentless nodes instead of stalling, and reports them as unreachable.
TEST(RoutingTreeMutatorsTest, BuildOnPartitionedFieldSkipsIslands) {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {500, 500}, {540, 500}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  RoutingTree tree = RoutingTree::Build(sim, 0);
  EXPECT_EQ(tree.num_reachable(), 3);
  EXPECT_FALSE(tree.InTree(3));
  EXPECT_FALSE(tree.InTree(4));
  EXPECT_EQ(tree.UnreachableNodes(), (std::vector<sim::NodeId>{3, 4}));
  EXPECT_EQ(tree.collection_order().size(), 3u);
  EXPECT_EQ(tree.dissemination_order().front(), 0);
}

// ---- Repair-request wire format ------------------------------------------

TEST(RepairWireTest, RoundTripsAllFields) {
  RepairRequest req;
  req.orphan = 42;
  req.dead_parent = 17;
  req.old_hops = 5;
  req.round = 1;
  const BitWriter wire = EncodeRepairRequest(req);
  EXPECT_EQ(wire.size_bits(), kRepairRequestBytes * 8);

  RepairRequest out;
  ASSERT_TRUE(DecodeRepairRequest(wire.bytes().data(), wire.size_bits(),
                                  /*num_nodes=*/100, &out)
                  .ok());
  EXPECT_EQ(out.orphan, 42);
  EXPECT_EQ(out.dead_parent, 17);
  EXPECT_EQ(out.old_hops, 5);
  EXPECT_EQ(out.round, 1);
}

TEST(RepairWireTest, RoundTripsUnknownParentAndHops) {
  RepairRequest req;
  req.orphan = 7;
  req.dead_parent = sim::kInvalidNode;
  req.old_hops = -1;
  const BitWriter wire = EncodeRepairRequest(req);
  RepairRequest out;
  ASSERT_TRUE(DecodeRepairRequest(wire.bytes().data(), wire.size_bits(),
                                  /*num_nodes=*/10, &out)
                  .ok());
  EXPECT_EQ(out.dead_parent, sim::kInvalidNode);
  EXPECT_EQ(out.old_hops, -1);
}

TEST(RepairWireTest, HardenedDecoderRejectsStructuralViolations) {
  RepairRequest req;
  req.orphan = 3;
  req.dead_parent = 1;
  req.old_hops = 2;
  const BitWriter wire = EncodeRepairRequest(req);
  std::vector<uint8_t> bytes = wire.bytes();
  RepairRequest out;

  // Wrong size (truncated and padded).
  EXPECT_FALSE(
      DecodeRepairRequest(bytes.data(), wire.size_bits() - 8, 10, &out).ok());
  EXPECT_FALSE(
      DecodeRepairRequest(bytes.data(), wire.size_bits() - 1, 10, &out).ok());

  // Wrong magic.
  std::vector<uint8_t> bad = bytes;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(DecodeRepairRequest(bad.data(), wire.size_bits(), 10, &out).ok());

  // Orphan out of the field's id range.
  EXPECT_FALSE(
      DecodeRepairRequest(bytes.data(), wire.size_bits(), 3, &out).ok());

  // Orphan equal to its dead parent.
  RepairRequest self;
  self.orphan = 3;
  self.dead_parent = 3;
  const BitWriter self_wire = EncodeRepairRequest(self);
  EXPECT_FALSE(DecodeRepairRequest(self_wire.bytes().data(),
                                   self_wire.size_bits(), 10, &out)
                   .ok());
}

// ---- TreeMaintenance ------------------------------------------------------

TEST(TreeMaintenanceTest, DetectsOrphansOfDeadParents) {
  sim::Simulator sim = MakeDiamond();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  TreeMaintenance maintenance(sim, tree);
  EXPECT_TRUE(maintenance.DetectOrphans().empty());

  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();
  EXPECT_EQ(maintenance.DetectOrphans(), (std::vector<sim::NodeId>{3}));
}

TEST(TreeMaintenanceTest, RepairsOrphanToBestLiveNeighbor) {
  sim::Simulator sim = MakeDiamond();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  ASSERT_EQ(tree.parent(3), 1);
  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();

  TreeMaintenance maintenance(sim, tree);
  EXPECT_TRUE(maintenance.Repair(3));
  EXPECT_EQ(tree.parent(3), 2);
  EXPECT_EQ(tree.hop_count(3), 2);
  EXPECT_EQ(maintenance.stats().orphans_detected, 1);
  EXPECT_EQ(maintenance.stats().repairs_succeeded, 1);
  EXPECT_GE(maintenance.stats().candidate_replies, 1);

  // Repair traffic is charged and itemized.
  EXPECT_GT(sim.totals().packets(sim::MessageKind::kRepair), 0u);
  EXPECT_GT(sim.totals().repair_bytes_sent, 0u);
  EXPECT_GT(sim.totals().repair_energy_mj, 0.0);
}

TEST(TreeMaintenanceTest, RepairSurvivesTotalPacketLoss) {
  // kRepair is loss-exempt like beacons: repair still works when every
  // loss-eligible kind would be dropped, and draws no fault randomness.
  sim::Simulator sim = MakeDiamond();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  sim.radio().set_default_rates({.loss = 1.0});
  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();

  TreeMaintenance maintenance(sim, tree);
  EXPECT_TRUE(maintenance.Repair(3));
  EXPECT_EQ(tree.parent(3), 2);
}

TEST(TreeMaintenanceTest, DescendantsCannotAdoptTheirOrphan) {
  // Chain: 1 dies; 2's only live neighbor is 3, which is inside 2's own
  // subtree — adopting it would close a loop, so repair must fail and
  // leave the tree untouched.
  sim::Simulator sim = MakeChain4();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();

  TreeMaintenance maintenance(sim, tree);
  EXPECT_FALSE(maintenance.Repair(2));
  EXPECT_EQ(tree.parent(2), 1);  // untouched
  EXPECT_EQ(maintenance.stats().repairs_failed, 1);
  EXPECT_EQ(maintenance.stats().candidate_replies, 0);
}

TEST(TreeMaintenanceTest, SiblingsOfACrashedParentCannotAdoptEachOther) {
  // 3 attaches under 1 next to 2: when 1 dies, both 2's and 3's root paths
  // run through the corpse, so neither is an admissible candidate for the
  // other.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {80, -20}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  RoutingTree tree = RoutingTree::Build(sim, 0);
  ASSERT_EQ(tree.parent(2), 1);
  ASSERT_EQ(tree.parent(3), 1);
  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();

  TreeMaintenance maintenance(sim, tree);
  EXPECT_FALSE(maintenance.Repair(2));
  EXPECT_FALSE(maintenance.Repair(3));
  EXPECT_EQ(tree.parent(2), 1);
  EXPECT_EQ(tree.parent(3), 1);
}

TEST(TreeMaintenanceTest, LaterRoundSucceedsAfterScheduledRecovery) {
  sim::Simulator sim = MakeDiamond();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  sim.ScheduleCrash(1, 0.5);
  sim.ScheduleCrash(2, 0.5);
  sim.events().Run();

  // Round 1 finds nobody (2 is down too); 2 reboots during the inter-round
  // wait and adopts the orphan in round 2.
  sim.ScheduleRecovery(2, sim.now() + 0.1);
  TreeMaintenance maintenance(sim, tree);
  EXPECT_TRUE(maintenance.Repair(3));
  EXPECT_EQ(tree.parent(3), 2);
  EXPECT_EQ(maintenance.stats().requests_broadcast, 2);
}

TEST(TreeMaintenanceTest, AcceptabilityPredicateVetoesCandidates) {
  sim::Simulator sim = MakeDiamond();
  RoutingTree tree = RoutingTree::Build(sim, 0);
  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();

  TreeMaintenance maintenance(sim, tree);
  EXPECT_FALSE(
      maintenance.Repair(3, [](sim::NodeId cand) { return cand != 2; }));
  EXPECT_EQ(tree.parent(3), 1);
}

TEST(TreeMaintenanceTest, RepairOfWholeSubtreeKeepsDescendants) {
  // 4 hangs under 3: repairing orphan 3 must carry 4 along with correct
  // depths.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {0, 40}, {40, 40}, {80, 40}};
  sim::Simulator sim{sim::Radio(pos, 50.0)};
  RoutingTree tree = RoutingTree::Build(sim, 0);
  ASSERT_EQ(tree.parent(3), 1);
  ASSERT_EQ(tree.parent(4), 3);
  sim.ScheduleCrash(1, 0.5);
  sim.events().Run();

  TreeMaintenance maintenance(sim, tree);
  EXPECT_TRUE(maintenance.Repair(3));
  EXPECT_EQ(tree.parent(3), 2);
  EXPECT_EQ(tree.parent(4), 3);
  EXPECT_EQ(tree.hop_count(4), 3);
  EXPECT_EQ(tree.subtree_size(2), 3);
}

}  // namespace
}  // namespace sensjoin::net
