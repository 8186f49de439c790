#include "sensjoin/testbed/report.h"

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin::testbed {
namespace {

TEST(ReportTest, HeatMapHasGridShapeAndBaseMarker) {
  TestbedParams params;
  params.placement.num_nodes = 120;
  params.placement.area_width_m = 300;
  params.placement.area_height_m = 300;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  std::vector<uint64_t> loads((*tb)->simulator().num_nodes(), 0);
  loads[5] = 40;
  const std::string map =
      LoadHeatMap((*tb)->placement(), loads, /*columns=*/20, /*rows=*/10);
  // Header line plus 10 rows of 20 characters.
  int lines = 0;
  for (char c : map) lines += c == '\n';
  EXPECT_EQ(lines, 11);
  EXPECT_NE(map.find('B'), std::string::npos);
  EXPECT_NE(map.find('@'), std::string::npos);  // the hot node
}

TEST(ReportTest, TreeSummaryMentionsReachabilityAndDepth) {
  TestbedParams params;
  params.placement.num_nodes = 100;
  params.placement.area_width_m = 300;
  params.placement.area_height_m = 300;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  const std::string summary = TreeSummary((*tb)->tree());
  EXPECT_NE(summary.find("100/100 nodes reachable"), std::string::npos);
  EXPECT_NE(summary.find("max depth"), std::string::npos);
  EXPECT_NE(summary.find("leaves:"), std::string::npos);
}

TEST(ReportTest, CostByDepthSumsToJoinPackets) {
  TestbedParams params;
  params.placement.num_nodes = 150;
  params.placement.area_width_m = 350;
  params.placement.area_height_m = 350;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE A.temp = B.temp ONCE");
  ASSERT_TRUE(q.ok());
  auto r = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(r.ok());
  const std::string chart = CostByDepth((*tb)->tree(), r->cost);
  // One row per depth level.
  int rows = 0;
  for (size_t pos = 0;
       (pos = chart.find("  depth", pos)) != std::string::npos; ++pos) {
    ++rows;
  }
  EXPECT_EQ(rows, (*tb)->tree().max_depth() + 1);
  // Invariant behind the chart: per-node join packets sum to the total.
  uint64_t sum = 0;
  for (uint64_t v : r->cost.per_node_packets) sum += v;
  EXPECT_EQ(sum, r->cost.join_packets);
}

join::JoinResult MakeResult(const std::vector<std::vector<double>>& rows) {
  join::JoinResult r;
  r.rows = join::RowTable(rows.empty() ? 0 : rows[0].size());
  for (const std::vector<double>& row : rows) r.rows.Append(row);
  return r;
}

TEST(ReportTest, ResultCompletenessCountsDeliveredTruthRows) {
  const auto truth = MakeResult({{1, 2}, {3, 4}, {5, 6}, {7, 8}});
  EXPECT_DOUBLE_EQ(ResultCompleteness(truth, truth), 1.0);
  EXPECT_DOUBLE_EQ(
      ResultCompleteness(truth, MakeResult({{1, 2}, {5, 6}})), 0.5);
  EXPECT_DOUBLE_EQ(ResultCompleteness(truth, MakeResult({})), 0.0);
  // Rows not in the truth never count.
  EXPECT_DOUBLE_EQ(
      ResultCompleteness(truth, MakeResult({{9, 9}, {3, 4}})), 0.25);
}

TEST(ReportTest, ResultCompletenessIsMultisetAware) {
  // Two identical truth rows need two deliveries; duplicates in the actual
  // result cannot inflate the score.
  const auto truth = MakeResult({{1, 2}, {1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(
      ResultCompleteness(truth, MakeResult({{1, 2}, {3, 4}})), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(
      ResultCompleteness(truth, MakeResult({{3, 4}, {3, 4}, {3, 4}})),
      1.0 / 3.0);
  EXPECT_DOUBLE_EQ(ResultCompleteness(truth, truth), 1.0);
}

TEST(ReportTest, ResultCompletenessOfEmptyTruthIsOne) {
  EXPECT_DOUBLE_EQ(
      ResultCompleteness(MakeResult({}), MakeResult({{1, 2}})), 1.0);
}

TEST(ReportTest, FaultToleranceSummaryListsOverheadAndCompleteness) {
  join::CostReport cost;
  cost.join_packets = 1000;
  cost.retransmitted_packets = 120;
  cost.ack_packets = 880;
  cost.energy_mj = 50.0;
  cost.retransmit_energy_mj = 6.5;
  cost.ack_energy_mj = 3.25;
  const std::string s = FaultToleranceSummary(cost, 0.985);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_NE(s.find("retransmitted 120"), std::string::npos);
  EXPECT_NE(s.find("acks 880"), std::string::npos);
  EXPECT_NE(s.find("6.5"), std::string::npos);
  EXPECT_NE(s.find("98.5%"), std::string::npos);
}

}  // namespace
}  // namespace sensjoin::testbed
