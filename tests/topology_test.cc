#include "sensjoin/net/topology.h"

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/sim/radio.h"

namespace sensjoin::net {
namespace {

TEST(TopologyTest, GeneratesConnectedPlacement) {
  Rng rng(1);
  PlacementParams params;
  params.num_nodes = 500;
  params.area_width_m = 600;
  params.area_height_m = 600;
  auto connected = GenerateConnectedPlacement(params, rng);
  ASSERT_TRUE(connected.ok()) << connected.status();
  EXPECT_EQ(connected->placement.positions.size(), 500u);
  // The returned radio is built over the final positions.
  EXPECT_EQ(connected->radio.positions(), connected->placement.positions);
  EXPECT_TRUE(connected->radio.IsConnected(
      connected->placement.base_station_id()));
  sim::Radio fresh(connected->placement.positions, params.range_m);
  EXPECT_TRUE(fresh.IsConnected(connected->placement.base_station_id()));
}

TEST(TopologyTest, AllPositionsInsideArea) {
  Rng rng(2);
  PlacementParams params;
  params.num_nodes = 300;
  params.area_width_m = 400;
  params.area_height_m = 250;
  auto connected = GenerateConnectedPlacement(params, rng);
  ASSERT_TRUE(connected.ok());
  for (const Point& p : connected->placement.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, params.area_width_m);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, params.area_height_m);
  }
}

TEST(TopologyTest, BaseStationPlacementModes) {
  Rng rng(3);
  PlacementParams corner;
  corner.num_nodes = 100;
  corner.area_width_m = 300;
  corner.area_height_m = 300;
  corner.base_station = BaseStationPlacement::kCorner;
  auto p1 = GenerateConnectedPlacement(corner, rng);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->placement.positions[0].x, 0.0);
  EXPECT_EQ(p1->placement.positions[0].y, 0.0);

  PlacementParams center = corner;
  center.base_station = BaseStationPlacement::kCenter;
  auto p2 = GenerateConnectedPlacement(center, rng);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p2->placement.positions[0].x, 150.0);
  EXPECT_EQ(p2->placement.positions[0].y, 150.0);
}

TEST(TopologyTest, SameSeedSamePlacement) {
  PlacementParams params;
  params.num_nodes = 200;
  params.area_width_m = 400;
  params.area_height_m = 400;
  Rng rng1(7);
  Rng rng2(7);
  auto p1 = GenerateConnectedPlacement(params, rng1);
  auto p2 = GenerateConnectedPlacement(params, rng2);
  ASSERT_TRUE(p1.ok() && p2.ok());
  EXPECT_EQ(p1->placement.positions, p2->placement.positions);
}

TEST(TopologyTest, RejectsInvalidParams) {
  Rng rng(1);
  PlacementParams bad;
  bad.num_nodes = 1;
  EXPECT_FALSE(GenerateConnectedPlacement(bad, rng).ok());
  bad.num_nodes = 10;
  bad.range_m = 0;
  EXPECT_FALSE(GenerateConnectedPlacement(bad, rng).ok());
}

TEST(TopologyTest, FailsWhenDensityHopeless) {
  Rng rng(1);
  PlacementParams sparse;
  sparse.num_nodes = 5;
  sparse.area_width_m = 100000;
  sparse.area_height_m = 100000;
  sparse.range_m = 1.0;
  sparse.max_attempts = 3;
  auto result = GenerateConnectedPlacement(sparse, rng);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace sensjoin::net
