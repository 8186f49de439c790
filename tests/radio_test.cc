#include "sensjoin/sim/radio.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"

namespace sensjoin::sim {
namespace {

TEST(RadioTest, LineTopologyNeighbors) {
  // Nodes at x = 0, 40, 80, 120 with range 50: chain adjacency.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {120, 0}};
  Radio radio(pos, 50.0);
  EXPECT_EQ(radio.Neighbors(0), (std::vector<NodeId>{1}));
  EXPECT_EQ(radio.Neighbors(1), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(radio.Neighbors(2), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(radio.Neighbors(3), (std::vector<NodeId>{2}));
}

TEST(RadioTest, RangeBoundaryIsInclusive) {
  std::vector<Point> pos = {{0, 0}, {50, 0}, {100.001, 0}};
  Radio radio(pos, 50.0);
  EXPECT_TRUE(radio.InRange(0, 1));
  EXPECT_FALSE(radio.InRange(1, 2));  // 50.001 apart
  EXPECT_FALSE(radio.InRange(0, 0));  // never own neighbor
}

TEST(RadioTest, AdjacencyMatchesBruteForce) {
  Rng rng(17);
  std::vector<Point> pos;
  for (int i = 0; i < 300; ++i) {
    pos.push_back({rng.UniformDouble(0, 500), rng.UniformDouble(0, 500)});
  }
  const double range = 60.0;
  Radio radio(pos, range);
  for (int i = 0; i < 300; ++i) {
    std::vector<NodeId> expected;
    for (int j = 0; j < 300; ++j) {
      if (i != j && Distance(pos[i], pos[j]) <= range) expected.push_back(j);
    }
    ASSERT_EQ(radio.Neighbors(i), expected) << "node " << i;
  }
}

TEST(RadioTest, AdjacencyIsSymmetric) {
  Rng rng(23);
  std::vector<Point> pos;
  for (int i = 0; i < 200; ++i) {
    pos.push_back({rng.UniformDouble(0, 400), rng.UniformDouble(0, 400)});
  }
  Radio radio(pos, 50.0);
  for (int i = 0; i < 200; ++i) {
    for (NodeId j : radio.Neighbors(i)) {
      const auto& back = radio.Neighbors(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(), i) != back.end());
    }
  }
}

TEST(RadioTest, LinkFailuresAreBidirectionalAndReversible) {
  std::vector<Point> pos = {{0, 0}, {30, 0}, {60, 0}};
  Radio radio(pos, 50.0);
  EXPECT_TRUE(radio.LinkUp(0, 1));
  radio.FailLink(0, 1);
  EXPECT_FALSE(radio.LinkUp(0, 1));
  EXPECT_FALSE(radio.LinkUp(1, 0));
  EXPECT_TRUE(radio.LinkUp(1, 2));  // other links unaffected
  EXPECT_EQ(radio.num_failed_links(), 1u);
  radio.RestoreLink(1, 0);  // restore works with swapped endpoints
  EXPECT_TRUE(radio.LinkUp(0, 1));
  EXPECT_EQ(radio.num_failed_links(), 0u);
}

TEST(RadioTest, FailedLinkNeverUpEvenInRange) {
  std::vector<Point> pos = {{0, 0}, {10, 0}};
  Radio radio(pos, 50.0);
  radio.FailLink(0, 1);
  EXPECT_TRUE(radio.InRange(0, 1));
  EXPECT_FALSE(radio.LinkUp(0, 1));
  radio.RestoreLink(0, 1);
  EXPECT_TRUE(radio.LinkUp(0, 1));
}

TEST(RadioTest, InvalidIdsAndSelfLinksAreIgnoredByFailAndRestore) {
  std::vector<Point> pos = {{0, 0}, {30, 0}, {60, 0}};
  Radio radio(pos, 50.0);
  radio.FailLink(-1, 0);
  radio.FailLink(0, 3);
  radio.FailLink(7, -2);
  radio.FailLink(1, 1);  // self-link
  EXPECT_EQ(radio.num_failed_links(), 0u);
  EXPECT_TRUE(radio.LinkUp(0, 1));
  // Restores on garbage are no-ops too, and don't disturb real failures.
  radio.FailLink(0, 1);
  radio.RestoreLink(-1, 0);
  radio.RestoreLink(0, 3);
  radio.RestoreLink(2, 2);
  EXPECT_EQ(radio.num_failed_links(), 1u);
  EXPECT_FALSE(radio.LinkUp(0, 1));
}

void ExpectRates(const LinkRates& got, double loss, double corruption,
                 double duplication) {
  EXPECT_DOUBLE_EQ(got.loss, loss);
  EXPECT_DOUBLE_EQ(got.corruption, corruption);
  EXPECT_DOUBLE_EQ(got.duplication, duplication);
}

TEST(RadioTest, LinkRatesDefaultOverrideAndClamp) {
  std::vector<Point> pos = {{0, 0}, {30, 0}, {60, 0}};
  Radio radio(pos, 50.0);
  ExpectRates(radio.Rates(0, 1), 0.0, 0.0, 0.0);
  radio.set_default_rates({.loss = 0.1, .corruption = 0.2, .duplication = 0.3});
  ExpectRates(radio.Rates(0, 1), 0.1, 0.2, 0.3);
  // An override replaces all three rates of its link, the ones it leaves at
  // zero included.
  radio.SetLinkRates(1, 2, {.loss = 0.5});
  ExpectRates(radio.Rates(1, 2), 0.5, 0.0, 0.0);
  ExpectRates(radio.Rates(2, 1), 0.5, 0.0, 0.0);  // symmetric
  ExpectRates(radio.Rates(0, 1), 0.1, 0.2, 0.3);  // others keep the default
  radio.SetLinkRates(2, 1, {.corruption = 0.4, .duplication = 0.6});
  ExpectRates(radio.Rates(1, 2), 0.0, 0.4, 0.6);  // the later entry wins
  // Each rate is clamped to [0, 1], in the default and in an override.
  radio.set_default_rates(
      {.loss = 3.0, .corruption = -1.0, .duplication = 2.0});
  ExpectRates(radio.Rates(0, 2), 1.0, 0.0, 1.0);
  radio.SetLinkRates(0, 1,
                     {.loss = -2.0, .corruption = 7.0, .duplication = -0.5});
  ExpectRates(radio.Rates(0, 1), 0.0, 1.0, 0.0);
  // Invalid endpoints and self-links: setters ignored, getter reports all
  // zero (not the default).
  const LinkRates high{.loss = 0.9, .corruption = 0.9, .duplication = 0.9};
  radio.SetLinkRates(-1, 5, high);
  radio.SetLinkRates(1, 1, high);
  ExpectRates(radio.Rates(-1, 5), 0.0, 0.0, 0.0);
  ExpectRates(radio.Rates(1, 1), 0.0, 0.0, 0.0);
  ExpectRates(radio.Rates(1, 3), 0.0, 0.0, 0.0);
}

TEST(RadioTest, ConnectivityDetection) {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {500, 500}};
  Radio radio(pos, 50.0);
  EXPECT_FALSE(radio.IsConnected(0));  // node 3 isolated
  std::vector<Point> connected = {{0, 0}, {40, 0}, {80, 0}};
  Radio radio2(connected, 50.0);
  EXPECT_TRUE(radio2.IsConnected(0));
  // Failing the bridge link disconnects.
  radio2.FailLink(0, 1);
  EXPECT_FALSE(radio2.IsConnected(0));
}

// --- Materialized vs on-demand mode agreement -----------------------------
//
// Above RadioOptions::materialize_threshold the radio stops building
// adjacency lists and answers neighbor queries from the spatial grid. The
// two modes must be observationally identical: same neighbor sets (same
// ascending order) and same InRange answers for every pair — the
// materialized mode's binary search and the on-demand mode's distance
// computation are different code paths over the same geometry.

std::vector<Point> RandomPositions(int n, double side, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pos;
  pos.reserve(n);
  for (int i = 0; i < n; ++i) {
    pos.push_back({rng.UniformDouble(0, side), rng.UniformDouble(0, side)});
  }
  return pos;
}

TEST(RadioTest, MaterializedAndOnDemandNeighborsAgree) {
  const std::vector<Point> pos = RandomPositions(300, 500.0, 77);
  RadioOptions always;
  always.materialize_threshold = -1;  // force adjacency lists
  RadioOptions never;
  never.materialize_threshold = 0;  // force grid-backed on-demand
  Radio mat(pos, 50.0, always);
  Radio grid(pos, 50.0, never);
  ASSERT_TRUE(mat.materialized());
  ASSERT_FALSE(grid.materialized());

  std::vector<NodeId> from_mat, from_grid;
  for (NodeId i = 0; i < mat.num_nodes(); ++i) {
    mat.Neighbors(i, from_mat);
    grid.Neighbors(i, from_grid);
    ASSERT_EQ(from_mat, from_grid) << "node " << i;
    // The scratch overload must also match the materialized reference list.
    ASSERT_EQ(from_mat, mat.Neighbors(i)) << "node " << i;
  }
}

TEST(RadioTest, MaterializedAndOnDemandInRangeAgree) {
  // Includes exact-boundary pairs (distance == range) so the binary-search
  // path and the distance path are tested on the inclusive edge too.
  std::vector<Point> pos = RandomPositions(120, 300.0, 78);
  pos.push_back({0, 0});
  pos.push_back({50, 0});  // exactly at range
  RadioOptions always;
  always.materialize_threshold = -1;
  RadioOptions never;
  never.materialize_threshold = 0;
  Radio mat(pos, 50.0, always);
  Radio grid(pos, 50.0, never);
  for (NodeId a = 0; a < mat.num_nodes(); ++a) {
    for (NodeId b = 0; b < mat.num_nodes(); ++b) {
      ASSERT_EQ(mat.InRange(a, b), grid.InRange(a, b))
          << "pair (" << a << ", " << b << ")";
    }
  }
  const NodeId x = static_cast<NodeId>(pos.size()) - 2;
  EXPECT_TRUE(mat.InRange(x, x + 1));
  EXPECT_TRUE(grid.InRange(x, x + 1));
}

TEST(RadioTest, OnDemandModeSupportsLinkFaults) {
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}};
  RadioOptions never;
  never.materialize_threshold = 0;
  Radio radio(pos, 50.0, never);
  EXPECT_TRUE(radio.LinkUp(0, 1));
  radio.FailLink(0, 1);
  EXPECT_FALSE(radio.LinkUp(0, 1));
  EXPECT_TRUE(radio.InRange(0, 1));  // range ignores failures
  radio.RestoreLink(0, 1);
  EXPECT_TRUE(radio.LinkUp(0, 1));
}

}  // namespace
}  // namespace sensjoin::sim
