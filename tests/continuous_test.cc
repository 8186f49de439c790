// Single-query continuous execution: one query served by a JoinService,
// checked epoch by epoch against independent snapshot executions.

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"
#include "sensjoin/testbed/service_harness.h"

namespace sensjoin::join {
namespace {

testbed::TestbedParams MediumParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 350;
  params.placement.area_width_m = 500;
  params.placement.area_height_m = 500;
  params.seed = seed;
  return params;
}

const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 500 "
    "SAMPLE PERIOD 30";

/// A one-query continuous service over `tb`; `*id` receives the query.
service::JoinService MakeContinuous(testbed::Testbed& tb,
                                    service::QueryId* id) {
  service::ServiceConfig config;
  config.protocol.use_treecut = false;  // continuous mode runs without Treecut
  service::JoinService svc = testbed::MakeService(tb, config);
  const StatusOr<service::QueryId> registered = svc.Register(kQuery);
  SENSJOIN_CHECK(registered.ok()) << registered.status();
  *id = *registered;
  return svc;
}

/// Runs the service's next epoch; returns the query's report for it.
StatusOr<ExecutionReport> ExecuteEpoch(service::JoinService& svc,
                                       service::QueryId id) {
  SENSJOIN_RETURN_IF_ERROR(svc.RunEpoch().status());
  SENSJOIN_ASSIGN_OR_RETURN(const service::QueryRecord* record,
                            svc.registry().Get(id));
  return record->reports.back();
}

class ContinuousSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContinuousSeedTest, EveryEpochMatchesSnapshotExecution) {
  auto tb = testbed::Testbed::Create(MediumParams(GetParam()));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok()) << q.status();

  service::QueryId id = 0;
  auto continuous = MakeContinuous(**tb, &id);
  for (uint64_t epoch = 0; epoch < 5; ++epoch) {
    auto delta_report = ExecuteEpoch(continuous, id);
    ASSERT_TRUE(delta_report.ok()) << delta_report.status();
    auto snapshot_report = (*tb)->MakeSensJoin().Execute(*q, epoch);
    ASSERT_TRUE(snapshot_report.ok());
    EXPECT_EQ(SortedRows(delta_report->result.rows),
              SortedRows(snapshot_report->result.rows))
        << "epoch " << epoch;
    EXPECT_EQ(delta_report->result.contributing_nodes,
              snapshot_report->result.contributing_nodes);
  }
}

TEST_P(ContinuousSeedTest, SteadyStateCollectionIsMuchCheaper) {
  auto tb = testbed::Testbed::Create(MediumParams(GetParam() + 50));
  ASSERT_TRUE(tb.ok());

  service::QueryId id = 0;
  auto continuous = MakeContinuous(**tb, &id);
  auto bootstrap = ExecuteEpoch(continuous, id);
  ASSERT_TRUE(bootstrap.ok());
  uint64_t steady_collection = 0;
  int epochs = 0;
  for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
    auto r = ExecuteEpoch(continuous, id);
    ASSERT_TRUE(r.ok());
    steady_collection += r->cost.phases.collection_packets;
    ++epochs;
    // Only a small fraction of nodes drift across a cell boundary between
    // epochs.
    EXPECT_LT(r->delta_changed_nodes, 200u);
  }
  // Deltas must undercut the bootstrap (full) collection substantially.
  EXPECT_LT(steady_collection / epochs,
            bootstrap->cost.phases.collection_packets / 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContinuousSeedTest, ::testing::Values(1, 9));

// A permanently failed hop aborts the epoch attempt; the attempt driver
// rebuilds the tree and the epoch re-runs, re-bootstrapped, correctly.
TEST(ContinuousTest, LinkFailureForcesReBootstrap) {
  auto tb = testbed::Testbed::Create(MediumParams(21));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok());
  service::QueryId id = 0;
  auto continuous = MakeContinuous(**tb, &id);
  ASSERT_TRUE(ExecuteEpoch(continuous, id).ok());

  // Break a loaded tree edge.
  const net::RoutingTree& tree = continuous.tree();
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

  auto epoch = continuous.RunEpoch();
  ASSERT_TRUE(epoch.ok()) << epoch.status();
  EXPECT_GE(epoch->tree_rebuilds, 1u);
  auto record = continuous.registry().Get(id);
  ASSERT_TRUE(record.ok());
  const ExecutionReport& recovered = (*record)->reports.back();
  EXPECT_GE(recovered.attempts, 2);
  // The re-executed epoch is correct.
  auto snapshot = (*tb)->MakeSensJoin().Execute(*q, 1);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(recovered.result.matched_combinations,
            snapshot->result.matched_combinations);
}

}  // namespace
}  // namespace sensjoin::join
