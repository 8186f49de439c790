#include "sensjoin/sim/radio.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"

namespace sensjoin::sim {
namespace {

std::vector<NodeId> List(std::span<const NodeId> neighbors) {
  return {neighbors.begin(), neighbors.end()};
}

std::vector<Point> RandomPositions(int n, double side, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pos;
  pos.reserve(n);
  for (int i = 0; i < n; ++i) {
    pos.push_back({rng.UniformDouble(0, side), rng.UniformDouble(0, side)});
  }
  return pos;
}

/// The in-range nodes of `id`, ascending, by distance alone.
std::vector<NodeId> BruteForceNeighbors(const std::vector<Point>& pos,
                                        NodeId id, double range) {
  std::vector<NodeId> out;
  for (NodeId j = 0; j < static_cast<NodeId>(pos.size()); ++j) {
    if (j != id && Distance(pos[id], pos[j]) <= range) out.push_back(j);
  }
  return out;
}

TEST(RadioTest, LineTopologyNeighbors) {
  // Nodes at x = 0, 40, 80, 120 with range 50: chain adjacency.
  std::vector<Point> pos = {{0, 0}, {40, 0}, {80, 0}, {120, 0}};
  Radio radio(pos, 50.0);
  EXPECT_EQ(List(radio.Neighbors(0)), (std::vector<NodeId>{1}));
  EXPECT_EQ(List(radio.Neighbors(1)), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(List(radio.Neighbors(2)), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(List(radio.Neighbors(3)), (std::vector<NodeId>{2}));
}

TEST(RadioTest, RangeBoundaryIsInclusive) {
  std::vector<Point> pos = {{0, 0}, {50, 0}, {100.001, 0}};
  Radio radio(pos, 50.0);
  EXPECT_TRUE(radio.InRange(0, 1));
  EXPECT_FALSE(radio.InRange(1, 2));  // 50.001 apart
  EXPECT_FALSE(radio.InRange(0, 0));  // never own neighbor
}

TEST(RadioTest, NeighborsAndInRangeMatchBruteForceForEveryPair) {
  std::vector<Point> pos = RandomPositions(300, 500.0, 17);
  pos.push_back({0, 0});
  pos.push_back({60, 0});  // exactly at range: the boundary is inclusive
  const double range = 60.0;
  Radio radio(pos, range);
  const NodeId n = radio.num_nodes();
  for (NodeId a = 0; a < n; ++a) {
    ASSERT_EQ(List(radio.Neighbors(a)), BruteForceNeighbors(pos, a, range))
        << "node " << a;
    for (NodeId b = 0; b < n; ++b) {
      ASSERT_EQ(radio.InRange(a, b),
                a != b && Distance(pos[a], pos[b]) <= range)
          << "pair (" << a << ", " << b << ")";
    }
  }
  EXPECT_TRUE(radio.InRange(n - 2, n - 1));
}

/// InRange tests the distance alone, standing in for a lookup in the
/// neighbor table, so the grid the table is filled from must not miss an
/// in-range pair — not even one exactly range_m apart whose coordinates sit
/// a few ulps either side of a cell boundary.
TEST(RadioTest, PairAtRangeAcrossCellBoundaryIsListed) {
  int pairs = 0;
  for (double range : {50.0, 60.0, 0.1, 7.3}) {
    for (int cell : {1, 2, 3, 7, 40}) {
      for (int ulps = -4; ulps <= 4; ++ulps) {
        double near = cell * range;
        for (int i = 0; i < std::abs(ulps); ++i) {
          near = std::nextafter(near, ulps > 0 ? 1e300 : -1e300);
        }
        const double far = near + range;
        for (bool vertical : {false, true}) {
          // Node 0 pins the grid's origin at (0, 0).
          std::vector<Point> pos = {{0, 0}, {near, 1.0}, {far, 1.0}};
          if (vertical) {
            for (Point& p : pos) std::swap(p.x, p.y);
          }
          if (Distance(pos[1], pos[2]) != range) continue;
          ++pairs;
          Radio radio(pos, range);
          EXPECT_EQ(List(radio.Neighbors(1)),
                    BruteForceNeighbors(pos, 1, range))
              << "range " << range << " near " << near;
          EXPECT_EQ(List(radio.Neighbors(2)),
                    BruteForceNeighbors(pos, 2, range))
              << "range " << range << " far " << far;
          EXPECT_TRUE(radio.InRange(1, 2));
          EXPECT_TRUE(radio.InRange(2, 1));
        }
      }
    }
  }
  EXPECT_GT(pairs, 100);
}

/// A few clusters kilometres apart with a short range: the grid widens its
/// cells far past the range to stay small, and the lists stay exact.
TEST(RadioTest, FarApartClustersMatchBruteForce) {
  std::vector<Point> pos;
  for (const Point& center : {Point{0, 0}, Point{3e5, 10}, Point{3e5, 4e5}}) {
    for (const Point& p : RandomPositions(40, 12.0, pos.size() + 3)) {
      pos.push_back({center.x + p.x, center.y + p.y});
    }
  }
  const double range = 2.5;
  Radio radio(pos, range);
  size_t entries = 0;
  for (NodeId a = 0; a < radio.num_nodes(); ++a) {
    ASSERT_EQ(List(radio.Neighbors(a)), BruteForceNeighbors(pos, a, range))
        << "node " << a;
    entries += radio.Neighbors(a).size();
  }
  EXPECT_GT(entries, pos.size());
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
      const std::span<const NodeId> back = radio.Neighbors(j);
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

// --- The CSR neighbor table ------------------------------------------------

// One table serves every size: a field above 32 768 nodes at the paper's
// density (1500 nodes per 1050 m x 1050 m) gets the same lists as brute
// force, laid out as one array in node order.
TEST(RadioTest, LargeFieldTableMatchesBruteForce) {
  const int n = 40000;
  const double side = 1050.0 * std::sqrt(n / 1500.0);
  const std::vector<Point> pos = RandomPositions(n, side, 91);
  Radio radio(pos, 50.0);
  ASSERT_EQ(radio.num_nodes(), n);
  size_t entries = radio.Neighbors(0).size();
  for (NodeId i = 1; i < n; ++i) {
    // Offsets are monotone: each node's run starts where the previous ends.
    const std::span<const NodeId> prev = radio.Neighbors(i - 1);
    ASSERT_EQ(radio.Neighbors(i).data(), prev.data() + prev.size())
        << "node " << i;
    entries += radio.Neighbors(i).size();
  }
  // Average degree near the paper's pi * 50^2 * 1500 / 1050^2 ~ 10.7.
  EXPECT_GT(entries, static_cast<size_t>(n) * 9);
  EXPECT_LT(entries, static_cast<size_t>(n) * 12);
  for (NodeId i = 0; i < n; i += 397) {
    ASSERT_EQ(List(radio.Neighbors(i)), BruteForceNeighbors(pos, i, 50.0))
        << "node " << i;
  }
}

}  // namespace
}  // namespace sensjoin::sim
