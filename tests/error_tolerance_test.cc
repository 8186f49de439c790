// Sec. IV-F: link failures during an execution are handled by letting the
// tree protocol re-establish routes and re-executing the query.

#include <tuple>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin {
namespace {

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 250;
  params.placement.area_width_m = 450;
  params.placement.area_height_m = 450;
  params.seed = seed;
  return params;
}

const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 450 ONCE";

/// Fails a deep tree link (if redundancy allows) and checks the executor
/// retries to a correct result.
TEST(ErrorToleranceTest, SensJoinRetriesAfterLinkFailure) {
  auto tb = testbed::Testbed::Create(SmallParams(11));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());

  // Ground truth before any failure.
  auto ext = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(ext.ok());

  // Break the link from a mid-tree node to its parent. The node has other
  // in-range neighbors, so CTP repair can reroute.
  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId victim = sim::kInvalidNode;
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 5 &&
        (*tb)->simulator().radio().Neighbors(u).size() >= 3) {
      victim = u;
      break;
    }
  }
  ASSERT_NE(victim, sim::kInvalidNode);
  (*tb)->simulator().radio().FailLink(victim, tree.parent(victim));

  auto sens = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(sens.ok()) << sens.status();
  EXPECT_GE(sens->attempts, 2);
  EXPECT_EQ(sens->result.matched_combinations,
            ext->result.matched_combinations);
}

TEST(ErrorToleranceTest, ExternalJoinRetriesAfterLinkFailure) {
  auto tb = testbed::Testbed::Create(SmallParams(12));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  auto clean = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(clean.ok());

  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId victim = sim::kInvalidNode;
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 5 &&
        (*tb)->simulator().radio().Neighbors(u).size() >= 3) {
      victim = u;
      break;
    }
  }
  ASSERT_NE(victim, sim::kInvalidNode);
  (*tb)->simulator().radio().FailLink(victim, tree.parent(victim));

  auto retried = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(retried.ok()) << retried.status();
  EXPECT_GE(retried->attempts, 2);
  EXPECT_EQ(retried->result.matched_combinations,
            clean->result.matched_combinations);
}

TEST(ErrorToleranceTest, PartitionedNetworkEventuallyErrorsOut) {
  // Three nodes in a chain; cutting both links to the base isolates them.
  testbed::TestbedParams params = SmallParams(13);
  params.placement.num_nodes = 12;
  params.placement.area_width_m = 120;
  params.placement.area_height_m = 120;
  auto tb = testbed::Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  // Sever every link of the base station.
  auto& radio = (*tb)->simulator().radio();
  for (sim::NodeId nb : radio.Neighbors(0)) radio.FailLink(0, nb);

  join::ProtocolConfig config;
  config.max_retries = 2;
  auto r = (*tb)->MakeSensJoin(config).Execute(*q, 0);
  // Either the whole network is unreachable (empty execution succeeds with
  // nothing collected) or the executor reports exhaustion; both are
  // acceptable terminal states, but it must not hang or crash.
  if (r.ok()) {
    EXPECT_EQ(r->collected_points, 0u);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(ErrorToleranceTest, SnapshotIsStableAcrossRetries) {
  // ONCE semantics survive re-execution: the retried run reads the same
  // snapshot (epoch), so results equal the unfailed run exactly.
  auto tb = testbed::Testbed::Create(SmallParams(14));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  auto before = (*tb)->MakeSensJoin().Execute(*q, 7);
  ASSERT_TRUE(before.ok());

  const net::RoutingTree& tree = (*tb)->tree();
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 3 &&
        (*tb)->simulator().radio().Neighbors(u).size() >= 3) {
      (*tb)->simulator().radio().FailLink(u, tree.parent(u));
      break;
    }
  }
  auto after = (*tb)->MakeSensJoin().Execute(*q, 7);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(before->result.matched_combinations,
            after->result.matched_combinations);
  EXPECT_EQ(before->result.contributing_nodes,
            after->result.contributing_nodes);
}

TEST(ErrorToleranceTest, NodeDeathDropsOnlyThatNodesData) {
  // A node dies after the tree is built. The execution fails over it, the
  // repaired tree excludes it, and the query completes without its tuple
  // (data loss is acceptable per Sec. IV-F; correctness for the remaining
  // nodes is not).
  auto tb = testbed::Testbed::Create(SmallParams(15));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());

  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId victim = sim::kInvalidNode;
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 4) {
      victim = u;
      break;
    }
  }
  ASSERT_NE(victim, sim::kInvalidNode);
  (*tb)->simulator().set_alive(victim, false);

  auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  for (sim::NodeId n : report->result.contributing_nodes) {
    EXPECT_NE(n, victim);
  }

  // Ground truth without the victim: restrict membership explicitly.
  std::vector<sim::NodeId> survivors;
  for (int i = 1; i < (*tb)->data().num_nodes(); ++i) {
    if (i != victim) survivors.push_back(i);
  }
  (*tb)->data().AssignRelation("sensors", survivors);
  auto expected = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(report->result.matched_combinations,
            expected->result.matched_combinations);
}

TEST(ErrorToleranceTest, DeadLeafIsSimplySkipped) {
  auto tb = testbed::Testbed::Create(SmallParams(16));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  // Kill a leaf: its first failed transmission triggers one re-execution,
  // after which the repaired tree simply excludes it.
  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId leaf = sim::kInvalidNode;
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.IsLeaf(u)) {
      leaf = u;
      break;
    }
  }
  ASSERT_NE(leaf, sim::kInvalidNode);
  (*tb)->simulator().set_alive(leaf, false);
  auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->attempts, 2);
  for (sim::NodeId n : report->result.contributing_nodes) {
    EXPECT_NE(n, leaf);
  }
}

/// Config used by the fault-injection tests: generous re-execution budget
/// and a real inter-attempt backoff so scheduled recovery events can fire
/// between attempts.
join::ProtocolConfig FaultyConfig() {
  join::ProtocolConfig config;
  config.max_retries = 6;
  config.retry_backoff_s = 1.0;
  return config;
}

sim::FaultPlan LossyPlan(double loss_rate, uint64_t seed) {
  sim::FaultPlan plan;
  plan.rates.loss = loss_rate;
  plan.arq.enabled = true;
  plan.arq.max_retransmissions = 6;
  plan.seed = seed;
  return plan;
}

/// Acceptance scenario: ambient loss >= 10% plus a node that crashes
/// mid-execution and later reboots. With ARQ and phase-level recovery the
/// run must converge to exactly the fault-free result set, with the
/// retransmission overhead itemized -- on more than one deployment seed.
TEST(ErrorToleranceTest, LossyRunWithCrashMatchesFaultFreeResult) {
  for (uint64_t seed : {21u, 22u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    // Fault-free ground truth on an untouched twin deployment.
    auto clean_tb = testbed::Testbed::Create(SmallParams(seed));
    ASSERT_TRUE(clean_tb.ok());
    auto cq = (*clean_tb)->ParseQuery(kQuery);
    ASSERT_TRUE(cq.ok());
    auto truth = (*clean_tb)->MakeExternalJoin().Execute(*cq, 0);
    ASSERT_TRUE(truth.ok());

    auto tb = testbed::Testbed::Create(SmallParams(seed));
    ASSERT_TRUE(tb.ok());
    auto q = (*tb)->ParseQuery(kQuery);
    ASSERT_TRUE(q.ok());

    const net::RoutingTree& tree = (*tb)->tree();
    sim::NodeId victim = sim::kInvalidNode;
    for (sim::NodeId u : tree.collection_order()) {
      if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 3) {
        victim = u;
        break;
      }
    }
    ASSERT_NE(victim, sim::kInvalidNode);

    (*tb)->InjectFaults(LossyPlan(0.10, seed * 97));
    // Crash the victim the instant the Join-Attribute-Collection traffic
    // starts (between transmissions -- the finest granularity at which the
    // synchronous protocol can observe a fault) and schedule its reboot
    // through the event queue; the recovery event fires once the failed
    // attempt drains, so the re-execution sees the node back up.
    sim::Simulator& sim = (*tb)->simulator();
    bool crashed = false;
    sim.SetTraceSink([&sim, &crashed, victim](const sim::TraceRecord& r) {
      if (!crashed && r.kind == sim::MessageKind::kCollection) {
        crashed = true;
        sim.set_alive(victim, false);
        sim.ScheduleRecovery(victim, sim.now() + 0.25);
      }
    });

    auto report = (*tb)->MakeSensJoin(FaultyConfig()).Execute(*q, 0);
    ASSERT_TRUE(report.ok()) << report.status();
    // The crash forced at least one re-execution; the reboot let the
    // victim rejoin, so nothing is missing from the result.
    EXPECT_GE(report->attempts, 2);
    EXPECT_EQ(report->result.rows.size(), truth->result.rows.size());
    EXPECT_DOUBLE_EQ(
        testbed::ResultCompleteness(truth->result, report->result), 1.0);
    // ARQ paid for the 10% loss, and the report itemizes it.
    EXPECT_GT(report->cost.retransmitted_packets, 0u);
    EXPECT_GT(report->cost.retransmit_energy_mj, 0.0);
    EXPECT_GT(report->cost.ack_packets, 0u);
  }
}

TEST(ErrorToleranceTest, NodeCrashDuringFilterDisseminationIsSurvived) {
  auto tb = testbed::Testbed::Create(SmallParams(18));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());

  // Fault-free run first: its contributors tell us which subtrees carry
  // post-filter traffic, so the crash is guaranteed to be observable.
  auto clean = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(clean.ok());
  ASSERT_FALSE(clean->result.contributing_nodes.empty());

  // Victim: a mid-tree ancestor of some contributor.
  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId victim = sim::kInvalidNode;
  for (sim::NodeId c : clean->result.contributing_nodes) {
    for (sim::NodeId p = tree.parent(c);
         p != sim::kInvalidNode && tree.hop_count(p) >= 2;
         p = tree.parent(p)) {
      victim = p;
    }
    if (victim != sim::kInvalidNode) break;
  }
  ASSERT_NE(victim, sim::kInvalidNode);

  // Kill the victim the instant the Filter-Dissemination phase starts (its
  // first broadcast is the root's, before the victim's parent transmits).
  sim::Simulator& sim = (*tb)->simulator();
  bool crashed = false;
  sim.SetTraceSink([&sim, &crashed, victim](const sim::TraceRecord& r) {
    if (!crashed && r.kind == sim::MessageKind::kFilter) {
      crashed = true;
      sim.set_alive(victim, false);
    }
  });

  auto report = (*tb)->MakeSensJoin(FaultyConfig()).Execute(*q, 0);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->attempts, 2);  // mid-phase death forces a re-execution
  // Everyone but the (permanently dead) victim still contributes.
  std::vector<sim::NodeId> expected;
  for (sim::NodeId n : clean->result.contributing_nodes) {
    if (n != victim) expected.push_back(n);
  }
  EXPECT_EQ(report->result.contributing_nodes, expected);
}

TEST(ErrorToleranceTest, CompletenessStaysHighAcrossLossRates) {
  auto clean_tb = testbed::Testbed::Create(SmallParams(19));
  ASSERT_TRUE(clean_tb.ok());
  auto cq = (*clean_tb)->ParseQuery(kQuery);
  ASSERT_TRUE(cq.ok());
  auto truth = (*clean_tb)->MakeExternalJoin().Execute(*cq, 0);
  ASSERT_TRUE(truth.ok());

  for (double loss : {0.05, 0.10, 0.20}) {
    SCOPED_TRACE(::testing::Message() << "loss " << loss);
    auto tb = testbed::Testbed::Create(SmallParams(19));
    ASSERT_TRUE(tb.ok());
    (*tb)->InjectFaults(LossyPlan(loss, 1234));
    auto q = (*tb)->ParseQuery(kQuery);
    ASSERT_TRUE(q.ok());
    auto report = (*tb)->MakeSensJoin(FaultyConfig()).Execute(*q, 0);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GE(testbed::ResultCompleteness(truth->result, report->result),
              0.95);
  }
}

TEST(ErrorToleranceTest, LossyRunIsDeterministicUnderAFixedSeed) {
  auto run = [] {
    auto tb = testbed::Testbed::Create(SmallParams(20));
    SENSJOIN_CHECK(tb.ok());
    (*tb)->InjectFaults(LossyPlan(0.15, 777));
    auto q = (*tb)->ParseQuery(kQuery);
    SENSJOIN_CHECK(q.ok());
    auto report = (*tb)->MakeSensJoin(FaultyConfig()).Execute(*q, 0);
    SENSJOIN_CHECK(report.ok()) << report.status();
    return std::make_tuple(report->result.rows, report->cost.join_packets,
                           report->cost.retransmitted_packets,
                           report->cost.ack_packets, report->attempts,
                           report->recovery_requests);
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace sensjoin
