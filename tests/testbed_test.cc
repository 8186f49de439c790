#include "sensjoin/testbed/testbed.h"

#include <algorithm>
#include <span>

#include <gtest/gtest.h>

namespace sensjoin::testbed {
namespace {

TEST(TestbedTest, CreatesPaperDefaultDeployment) {
  TestbedParams params;
  params.placement.num_nodes = 300;  // scaled down for test speed
  params.placement.area_width_m = 470;
  params.placement.area_height_m = 470;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok()) << tb.status();
  EXPECT_EQ((*tb)->simulator().num_nodes(), 300);
  EXPECT_EQ((*tb)->tree().num_reachable(), 300);
  // Default fields: x, y + 4 sensors.
  EXPECT_EQ((*tb)->data().schema().num_attributes(), 6);
  EXPECT_TRUE((*tb)->data().schema().Contains("temp"));
  EXPECT_TRUE((*tb)->data().schema().Contains("light"));
  // Quantization covers every attribute.
  for (const auto& attr : (*tb)->data().schema().attributes()) {
    EXPECT_TRUE((*tb)->quantization().by_attr.count(attr.name) > 0)
        << attr.name;
  }
}

TEST(TestbedTest, SameSeedIsFullyReproducible) {
  TestbedParams params;
  params.placement.num_nodes = 200;
  params.placement.area_width_m = 400;
  params.placement.area_height_m = 400;
  params.seed = 77;
  auto tb1 = Testbed::Create(params);
  auto tb2 = Testbed::Create(params);
  ASSERT_TRUE(tb1.ok() && tb2.ok());
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ((*tb1)->placement().positions[i], (*tb2)->placement().positions[i]);
    EXPECT_EQ((*tb1)->data().Sense(i, 0), (*tb2)->data().Sense(i, 0));
    EXPECT_EQ((*tb1)->tree().parent(i), (*tb2)->tree().parent(i));
  }
}

// The simulator runs on the radio the placement's connectivity check built:
// its neighbor table equals one built afresh from the final positions.
TEST(TestbedTest, SimulatorRadioMatchesAFreshRadioOfThePlacement) {
  TestbedParams params;
  params.placement.num_nodes = 250;
  params.placement.area_width_m = 430;
  params.placement.area_height_m = 430;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok()) << tb.status();
  const sim::Radio& radio = (*tb)->simulator().radio();
  const sim::Radio fresh((*tb)->placement().positions,
                         params.placement.range_m);
  ASSERT_EQ(radio.num_nodes(), fresh.num_nodes());
  EXPECT_EQ(radio.positions(), (*tb)->placement().positions);
  for (sim::NodeId u = 0; u < fresh.num_nodes(); ++u) {
    const std::span<const sim::NodeId> got = radio.Neighbors(u);
    const std::span<const sim::NodeId> want = fresh.Neighbors(u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "node " << u;
  }
}

TEST(TestbedTest, QueryDisseminationCostsQueryPackets) {
  TestbedParams params;
  params.placement.num_nodes = 150;
  params.placement.area_width_m = 350;
  params.placement.area_height_m = 350;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT A.temp FROM sensors A, sensors B WHERE A.temp = B.temp ONCE");
  ASSERT_TRUE(q.ok());
  const uint64_t before =
      (*tb)->simulator().totals().packets(sim::MessageKind::kQuery);
  EXPECT_EQ((*tb)->DisseminateQuery(*q), 150);
  EXPECT_GT((*tb)->simulator().totals().packets(sim::MessageKind::kQuery),
            before);
}

TEST(TestbedTest, RepeatedDisseminationReachesEveryNode) {
  // Re-flooding a query (new epoch, re-execution after a failure) must
  // reach the whole network again: the testbed resets the flood
  // suppression state per call, so node-resident "already forwarded" marks
  // from the previous epoch cannot smother the new flood.
  TestbedParams params;
  params.placement.num_nodes = 150;
  params.placement.area_width_m = 350;
  params.placement.area_height_m = 350;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  auto q = (*tb)->ParseQuery(
      "SELECT A.temp FROM sensors A, sensors B WHERE A.temp = B.temp ONCE");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*tb)->DisseminateQuery(*q), 150);
  EXPECT_EQ((*tb)->DisseminateQuery(*q), 150);
  EXPECT_EQ((*tb)->DisseminateQuery(*q), 150);
}

TEST(TestbedTest, RebuildTreeAfterFailure) {
  TestbedParams params;
  params.placement.num_nodes = 150;
  params.placement.area_width_m = 350;
  params.placement.area_height_m = 350;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  // Fail the first tree edge we can find and rebuild.
  const auto& tree = (*tb)->tree();
  sim::NodeId child = tree.collection_order().front();
  (*tb)->simulator().radio().FailLink(child, tree.parent(child));
  (*tb)->RebuildTree();
  EXPECT_NE((*tb)->tree().parent(child), sim::kInvalidNode);
}

TEST(TestbedTest, ParseErrorsSurface) {
  TestbedParams params;
  params.placement.num_nodes = 50;
  params.placement.area_width_m = 200;
  params.placement.area_height_m = 200;
  auto tb = Testbed::Create(params);
  ASSERT_TRUE(tb.ok());
  EXPECT_FALSE((*tb)->ParseQuery("SELECT bogus FROM sensors ONCE").ok());
  EXPECT_FALSE((*tb)->ParseQuery("not sql").ok());
}

}  // namespace
}  // namespace sensjoin::testbed
