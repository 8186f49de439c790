#include "sensjoin/join/quantizer.h"

#include <cmath>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"

namespace sensjoin::join {
namespace {

DimensionSpec TempDim() {
  DimensionSpec d;
  d.attr_name = "temp";
  d.attr_index = 0;
  d.min_val = 0.0;
  d.max_val = 50.0;
  d.resolution = 0.1;
  return d;
}

TEST(QuantizerTest, SizesRoundUpToPowersOfTwo) {
  auto q = Quantizer::Create({TempDim()});
  ASSERT_TRUE(q.ok());
  // ceil(50 / 0.1) + 1 = 501 -> 512 cells -> 9 bits.
  EXPECT_EQ(q->size_of_dim(0), 512u);
  EXPECT_EQ(q->bits_per_dim(0), 9);
  EXPECT_EQ(q->total_bits(), 9);
}

TEST(QuantizerTest, ModerateOverestimationCostsNothing) {
  // The paper's example: ranges of 600 and 900 values both need 10 bits.
  DimensionSpec d600 = TempDim();
  d600.max_val = 59.9;  // 600 steps of 0.1
  DimensionSpec d900 = TempDim();
  d900.max_val = 89.9;
  auto q600 = Quantizer::Create({d600});
  auto q900 = Quantizer::Create({d900});
  EXPECT_EQ(q600->bits_per_dim(0), 10);
  EXPECT_EQ(q900->bits_per_dim(0), 10);
}

TEST(QuantizerTest, CoordinateClampsOutOfRangeValues) {
  auto q = Quantizer::Create({TempDim()});
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->Coordinate(0, -100.0), 0u);
  EXPECT_EQ(q->Coordinate(0, 0.0), 0u);
  EXPECT_EQ(q->Coordinate(0, 1e9), 511u);
}

TEST(QuantizerTest, CellIntervalContainsAllValuesMappingToIt) {
  auto q = Quantizer::Create({TempDim()});
  ASSERT_TRUE(q.ok());
  Rng rng(31);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.UniformDouble(-20, 80);  // includes out-of-range
    const uint32_t c = q->Coordinate(0, v);
    const query::Interval cell = q->CellInterval(0, c);
    EXPECT_TRUE(cell.Contains(v)) << "v=" << v << " c=" << c;
  }
}

TEST(QuantizerTest, BoundaryCellsAreUnbounded) {
  auto q = Quantizer::Create({TempDim()});
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(std::isinf(q->CellInterval(0, 0).lo));
  EXPECT_TRUE(std::isinf(q->CellInterval(0, 511).hi));
  EXPECT_FALSE(std::isinf(q->CellInterval(0, 5).lo));
}

TEST(QuantizerTest, FromConfigLooksUpByName) {
  data::Schema schema({{"x", 2}, {"temp", 2}});
  QuantizationConfig config;
  config.by_attr["x"] = {0, 1000, 1.0};
  config.by_attr["temp"] = {0, 50, 0.1};
  auto q = Quantizer::FromConfig(schema, {0, 1}, config);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->num_dims(), 2);
  EXPECT_EQ(q->dim(0).attr_name, "x");
  EXPECT_EQ(q->bits_per_dim(0), 10);  // 1001 cells -> 1024
  EXPECT_EQ(q->dim(1).attr_index, 1);
}

TEST(QuantizerTest, FromConfigErrors) {
  data::Schema schema({{"x", 2}});
  QuantizationConfig config;
  EXPECT_EQ(Quantizer::FromConfig(schema, {0}, config).status().code(),
            StatusCode::kNotFound);
  config.by_attr["x"] = {0, 1000, 1.0};
  EXPECT_FALSE(Quantizer::FromConfig(schema, {5}, config).ok());
}

TEST(QuantizerTest, CreateErrors) {
  DimensionSpec bad = TempDim();
  bad.resolution = 0;
  EXPECT_FALSE(Quantizer::Create({bad}).ok());
  bad = TempDim();
  bad.max_val = -1;
  EXPECT_FALSE(Quantizer::Create({bad}).ok());
  EXPECT_FALSE(Quantizer::Create({}).ok());
}

TEST(QuantizerTest, CoarserResolutionFewerBits) {
  DimensionSpec coarse = TempDim();
  coarse.resolution = 1.0;
  auto qf = Quantizer::Create({TempDim()});
  auto qc = Quantizer::Create({coarse});
  EXPECT_LT(qc->bits_per_dim(0), qf->bits_per_dim(0));
}

}  // namespace
}  // namespace sensjoin::join
