#include "sensjoin/common/rng.h"

#include <vector>

#include <gtest/gtest.h>

namespace sensjoin {
namespace {

TEST(RngTest, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformDoubleRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.UniformDouble(-5.0, 3.0);
    EXPECT_GE(v, -5.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 60000; ++i) {
    const int64_t v = rng.UniformInt(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++counts[v - 10];
  }
  // Every value appears with roughly uniform frequency.
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, NextBoolFrequency) {
  Rng rng(9);
  int heads = 0;
  for (int i = 0; i < 100000; ++i) heads += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 100000.0, 0.3, 0.01);
}

TEST(RngTest, ForkIsIndependentAndDeterministic) {
  Rng a(55);
  Rng b(55);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
  // Fork does not replay the parent.
  Rng parent(55);
  Rng fork = parent.Fork();
  EXPECT_NE(fork.NextUint64(), parent.NextUint64());
}

}  // namespace
}  // namespace sensjoin
