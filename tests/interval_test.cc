#include "sensjoin/query/interval.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"

namespace sensjoin::query {
namespace {

TEST(IntervalTest, BasicArithmetic) {
  const Interval a{1, 2};
  const Interval b{-3, 5};
  EXPECT_EQ(Add(a, b), (Interval{-2, 7}));
  EXPECT_EQ(Sub(a, b), (Interval{-4, 5}));
  EXPECT_EQ(Neg(a), (Interval{-2, -1}));
  EXPECT_EQ(Mul(a, b), (Interval{-6, 10}));
}

TEST(IntervalTest, MulSignCombinations) {
  EXPECT_EQ(Mul({-2, -1}, {-3, -2}), (Interval{2, 6}));
  EXPECT_EQ(Mul({-2, 3}, {-1, 4}), (Interval{-8, 12}));
}

TEST(IntervalTest, DivisionByZeroStraddlingIsWide) {
  const Interval r = Div({1, 2}, {-1, 1});
  EXPECT_TRUE(std::isinf(r.lo));
  EXPECT_TRUE(std::isinf(r.hi));
  EXPECT_EQ(Div({4, 8}, {2, 4}), (Interval{1, 4}));
}

TEST(IntervalTest, AbsCases) {
  EXPECT_EQ(Abs({2, 5}), (Interval{2, 5}));
  EXPECT_EQ(Abs({-5, -2}), (Interval{2, 5}));
  EXPECT_EQ(Abs({-3, 2}), (Interval{0, 3}));
}

TEST(IntervalTest, SqrtClampsNegative) {
  EXPECT_EQ(Sqrt({4, 9}), (Interval{2, 3}));
  EXPECT_EQ(Sqrt({-4, 9}), (Interval{0, 3}));
  EXPECT_EQ(Sqrt({-4, -1}), (Interval{0, 0}));
}

TEST(IntervalTest, MinMax) {
  EXPECT_EQ(Min({1, 5}, {2, 3}), (Interval{1, 3}));
  EXPECT_EQ(Max({1, 5}, {2, 3}), (Interval{2, 5}));
}

TEST(TriLogicTest, Comparisons) {
  EXPECT_EQ(Lt({1, 2}, {3, 4}), Tri::kTrue);
  EXPECT_EQ(Lt({3, 4}, {1, 2}), Tri::kFalse);
  EXPECT_EQ(Lt({1, 3}, {2, 4}), Tri::kMaybe);
  EXPECT_EQ(Lt({1, 2}, {2, 3}), Tri::kMaybe);  // touching endpoints
  EXPECT_EQ(Le({1, 2}, {2, 3}), Tri::kTrue);
  EXPECT_EQ(Eq({1, 1}, {1, 1}), Tri::kTrue);
  EXPECT_EQ(Eq({1, 2}, {3, 4}), Tri::kFalse);
  EXPECT_EQ(Eq({1, 2}, {2, 3}), Tri::kMaybe);
  EXPECT_EQ(Ne({1, 2}, {3, 4}), Tri::kTrue);
  EXPECT_EQ(Ne({1, 1}, {1, 1}), Tri::kFalse);
}

TEST(TriLogicTest, AndOrNotTables) {
  EXPECT_EQ(And(Tri::kTrue, Tri::kTrue), Tri::kTrue);
  EXPECT_EQ(And(Tri::kTrue, Tri::kMaybe), Tri::kMaybe);
  EXPECT_EQ(And(Tri::kMaybe, Tri::kFalse), Tri::kFalse);
  EXPECT_EQ(Or(Tri::kFalse, Tri::kFalse), Tri::kFalse);
  EXPECT_EQ(Or(Tri::kMaybe, Tri::kFalse), Tri::kMaybe);
  EXPECT_EQ(Or(Tri::kMaybe, Tri::kTrue), Tri::kTrue);
  EXPECT_EQ(Not(Tri::kTrue), Tri::kFalse);
  EXPECT_EQ(Not(Tri::kFalse), Tri::kTrue);
  EXPECT_EQ(Not(Tri::kMaybe), Tri::kMaybe);
}

/// Property: for random intervals and random points inside them, the result
/// of each interval operation contains the pointwise result.
class IntervalInclusionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IntervalInclusionTest, OperationsAreOutwardConservative) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    auto random_interval = [&] {
      const double a = rng.UniformDouble(-10, 10);
      const double b = rng.UniformDouble(-10, 10);
      return Interval{std::min(a, b), std::max(a, b)};
    };
    const Interval ia = random_interval();
    const Interval ib = random_interval();
    const double x = rng.UniformDouble(ia.lo, ia.hi);
    const double y = rng.UniformDouble(ib.lo, ib.hi);

    EXPECT_TRUE(Add(ia, ib).Contains(x + y));
    EXPECT_TRUE(Sub(ia, ib).Contains(x - y));
    EXPECT_TRUE(Mul(ia, ib).Contains(x * y));
    if (y != 0.0) {
      EXPECT_TRUE(Div(ia, ib).Contains(x / y));
    }
    EXPECT_TRUE(Abs(ia).Contains(std::abs(x)));
    EXPECT_TRUE(Neg(ia).Contains(-x));
    if (x >= 0) {
      EXPECT_TRUE(Sqrt(ia).Contains(std::sqrt(x)));
    }
    EXPECT_TRUE(Min(ia, ib).Contains(std::min(x, y)));
    EXPECT_TRUE(Max(ia, ib).Contains(std::max(x, y)));

    // Comparisons: a definitive answer must match the pointwise result.
    if (Lt(ia, ib) == Tri::kTrue) {
      EXPECT_LT(x, y);
    }
    if (Lt(ia, ib) == Tri::kFalse) {
      EXPECT_GE(x, y);
    }
    if (Le(ia, ib) == Tri::kTrue) {
      EXPECT_LE(x, y);
    }
    if (Ge(ia, ib) == Tri::kTrue) {
      EXPECT_GE(x, y);
    }
    if (Eq(ia, ib) == Tri::kFalse) {
      EXPECT_NE(x, y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalInclusionTest,
                         ::testing::Values(3, 14, 159, 265));

}  // namespace
}  // namespace sensjoin::query
