// End-to-end correctness: SENS-Join must compute exactly the same result as
// the external join (which ships everything and is trivially correct), for
// snapshot queries over a small deployment. This is the paper's core
// correctness claim: the lossy pre-computation never loses a result tuple
// (Sec. V-B, footnote 2).

#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin {
namespace {

testbed::TestbedParams SmallParams(uint64_t seed) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 200;
  params.placement.area_width_m = 400;
  params.placement.area_height_m = 400;
  params.seed = seed;
  return params;
}

class JoinEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinEquivalenceTest, SimilarityJoinMatchesExternalJoin) {
  auto tb = testbed::Testbed::Create(SmallParams(GetParam()));
  ASSERT_TRUE(tb.ok()) << tb.status();
  // Selective Q2-style query: similar temperature but far apart is rare in
  // a spatially correlated field.
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(A.x, A.y, B.x, B.y) > 400 ONCE");
  ASSERT_TRUE(q.ok()) << q.status();

  auto external = (*tb)->MakeExternalJoin();
  auto ext_report = external.Execute(*q, 0);
  ASSERT_TRUE(ext_report.ok()) << ext_report.status();

  auto sens = (*tb)->MakeSensJoin();
  auto sens_report = sens.Execute(*q, 0);
  ASSERT_TRUE(sens_report.ok()) << sens_report.status();

  EXPECT_EQ(join::SortedRows(ext_report->result.rows),
            join::SortedRows(sens_report->result.rows));
  EXPECT_EQ(ext_report->result.matched_combinations,
            sens_report->result.matched_combinations);
  EXPECT_EQ(ext_report->result.contributing_nodes,
            sens_report->result.contributing_nodes);
  // The query is selective; SENS-Join must beat the baseline.
  EXPECT_LT(sens_report->cost.join_packets, ext_report->cost.join_packets);
}

TEST_P(JoinEquivalenceTest, AggregateQueryMatchesExternalJoin) {
  auto tb = testbed::Testbed::Create(SmallParams(GetParam()));
  ASSERT_TRUE(tb.ok()) << tb.status();
  // Q1 from the paper: minimum distance between points with a temperature
  // difference of more than a threshold (threshold adapted to the field).
  auto q = (*tb)->ParseQuery(
      "SELECT MIN(distance(A.x, A.y, B.x, B.y)) "
      "FROM sensors A, sensors B "
      "WHERE A.temp - B.temp > 4.0 ONCE");
  ASSERT_TRUE(q.ok()) << q.status();

  auto ext_report = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(ext_report.ok()) << ext_report.status();
  auto sens_report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(sens_report.ok()) << sens_report.status();

  ASSERT_EQ(ext_report->result.rows.size(), 1u);
  ASSERT_EQ(sens_report->result.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(ext_report->result.rows[0][0],
                   sens_report->result.rows[0][0]);
  EXPECT_EQ(ext_report->result.matched_combinations,
            sens_report->result.matched_combinations);
}

TEST_P(JoinEquivalenceTest, SelectionPredicatesArePushedDown) {
  auto tb = testbed::Testbed::Create(SmallParams(GetParam()));
  ASSERT_TRUE(tb.ok()) << tb.status();
  auto q = (*tb)->ParseQuery(
      "SELECT A.pres, B.pres FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 AND A.hum > 50 AND B.hum <= 50 ONCE");
  ASSERT_TRUE(q.ok()) << q.status();

  auto ext_report = (*tb)->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(ext_report.ok()) << ext_report.status();
  auto sens_report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(sens_report.ok()) << sens_report.status();

  EXPECT_EQ(join::SortedRows(ext_report->result.rows),
            join::SortedRows(sens_report->result.rows));
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinEquivalenceTest,
                         ::testing::Values(1, 7, 21, 99));

TEST(JoinBasicsTest, EmptyResultShipsAlmostNothing) {
  auto tb = testbed::Testbed::Create(SmallParams(5));
  ASSERT_TRUE(tb.ok()) << tb.status();
  // Impossible join condition: nothing can match.
  auto q = (*tb)->ParseQuery(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE A.temp - B.temp > 1000 ONCE");
  ASSERT_TRUE(q.ok()) << q.status();

  auto sens_report = (*tb)->MakeSensJoin().Execute(*q, 0);
  ASSERT_TRUE(sens_report.ok()) << sens_report.status();
  EXPECT_EQ(sens_report->result.matched_combinations, 0u);
  EXPECT_EQ(sens_report->filter_points, 0u);
  // No filter needs forwarding, and only Treecut tuples move in phase 2.
  EXPECT_EQ(sens_report->cost.phases.filter_packets, 0u);
  EXPECT_EQ(sens_report->final_tuples_shipped, 0u);
}

TEST(JoinBasicsTest, SensJoinRequiresTwoRelations) {
  auto tb = testbed::Testbed::Create(SmallParams(5));
  ASSERT_TRUE(tb.ok()) << tb.status();
  auto q = (*tb)->ParseQuery("SELECT temp FROM sensors ONCE");
  ASSERT_TRUE(q.ok()) << q.status();
  auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sensjoin
