// Further end-to-end coverage: three-way joins, packet-size variations,
// select-star output, and query dissemination accounting.

#include <algorithm>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin {
namespace {

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 150;
  params.placement.area_width_m = 350;
  params.placement.area_height_m = 350;
  params.seed = seed;
  return params;
}

TEST(ThreeWayJoinTest, SensJoinMatchesExternalJoin) {
  auto tb = testbed::Testbed::Create(SmallParams(17));
  ASSERT_TRUE(tb.ok());
  // A chain of temperature steps: A noticeably colder than B, B than C.
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum, C.hum FROM sensors A, sensors B, sensors C "
      "WHERE B.temp - A.temp > 2.5 AND C.temp - B.temp > 2.5 ONCE");
  ASSERT_TRUE(q.ok()) << q.status();
  auto ext = (*tb)->MakeExternalJoin().Execute(*q, 0);
  auto sens = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(ext.ok() && sens.ok()) << sens.status();
  EXPECT_EQ(ext->result.matched_combinations,
            sens->result.matched_combinations);
  EXPECT_EQ(join::SortedRows(ext->result.rows),
            join::SortedRows(sens->result.rows));
}

class PacketSizeTest : public ::testing::TestWithParam<int> {};

TEST_P(PacketSizeTest, ResultsIndependentOfPacketSize) {
  testbed::TestbedParams params = SmallParams(19);
  params.packets.max_packet_bytes = GetParam();
  auto tb = testbed::Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.2 "
      "AND distance(A.x, A.y, B.x, B.y) > 300 ONCE");
  ASSERT_TRUE(q.ok());
  join::ProtocolConfig config;
  // Dmax must stay below the maximum packet size (Sec. IV-E).
  config.dmax_bytes = std::min(30, GetParam() - 8);
  auto ext = (*tb)->MakeExternalJoin().Execute(*q, 0);
  auto sens = (*tb)->MakeSensJoin(config).Execute(*q, 0);
  ASSERT_TRUE(ext.ok() && sens.ok()) << sens.status();
  EXPECT_EQ(join::SortedRows(ext->result.rows),
            join::SortedRows(sens->result.rows));
  EXPECT_GT(sens->cost.join_packets, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PacketSizeTest,
                         ::testing::Values(24, 48, 124));

TEST(SelectStarTest, AllAttributesArrive) {
  auto tb = testbed::Testbed::Create(SmallParams(23));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT * FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.02 "
      "AND distance(A.x, A.y, B.x, B.y) > 250 ONCE");
  ASSERT_TRUE(q.ok());
  auto ext = (*tb)->MakeExternalJoin().Execute(*q, 0);
  auto sens = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(ext.ok() && sens.ok());
  EXPECT_EQ(join::SortedRows(ext->result.rows),
            join::SortedRows(sens->result.rows));
  // 2 tables x 6 attributes.
  EXPECT_EQ(sens->result.column_labels.size(), 12u);
  for (const auto& row : sens->result.rows) {
    EXPECT_EQ(row.size(), 12u);
  }
}

TEST(EpochIsolationTest, DifferentEpochsSenseDifferentSnapshots) {
  auto tb = testbed::Testbed::Create(SmallParams(29));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT COUNT(*) FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.05 ONCE");
  ASSERT_TRUE(q.ok());
  auto sens = (*tb)->MakeSensJoin();
  auto r0 = sens.Execute(*q, 0);
  auto r0_again = sens.Execute(*q, 0);
  auto r1 = sens.Execute(*q, 1);
  ASSERT_TRUE(r0.ok() && r0_again.ok() && r1.ok());
  // ONCE over the same epoch is deterministic.
  EXPECT_EQ(r0->result.rows[0][0], r0_again->result.rows[0][0]);
  // Fresh epochs see jittered values; the count is extremely unlikely to
  // stay identical for a razor-thin band.
  EXPECT_NE(r0->result.rows[0][0], r1->result.rows[0][0]);
}

TEST(SingleTableTest, ExternalExecutorServesPlainCollectionQueries) {
  // TinyDB-style data collection (no join) runs through the external
  // executor: every node's selected attributes arrive at the base.
  auto tb = testbed::Testbed::Create(SmallParams(37));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT temp, hum FROM sensors WHERE light > 0 ONCE");
  ASSERT_TRUE(q.ok()) << q.status();
  auto r = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(r.ok()) << r.status();
  // One row per node (all nodes pass the trivial selection; base excluded).
  EXPECT_EQ(r->result.rows.size(),
            static_cast<size_t>((*tb)->simulator().num_nodes() - 1));
  EXPECT_EQ(r->result.column_labels.size(), 2u);
}

TEST(DisseminationAccountingTest, QueryFloodIsNotAJoinCost) {
  auto tb = testbed::Testbed::Create(SmallParams(31));
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE A.temp = B.temp ONCE");
  ASSERT_TRUE(q.ok());
  (*tb)->DisseminateQuery(*q);
  auto sens = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(sens.ok());
  const auto& sim = (*tb)->simulator();
  EXPECT_GT(sim.totals().packets(sim::MessageKind::kQuery), 0u);
  EXPECT_GT(sim.totals().packets(sim::MessageKind::kBeacon), 0u);
  // join_packets covers only the three protocol phases.
  EXPECT_EQ(sens->cost.join_packets,
            sens->cost.phases.collection_packets +
                sens->cost.phases.filter_packets +
                sens->cost.phases.final_packets);
}

}  // namespace
}  // namespace sensjoin
