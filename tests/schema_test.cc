#include "sensjoin/data/schema.h"

#include <gtest/gtest.h>

#include "sensjoin/data/relation.h"
#include "sensjoin/data/tuple.h"

namespace sensjoin::data {
namespace {

Schema MakeSchema() {
  return Schema({{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 4}});
}

TEST(SchemaTest, LookupByName) {
  const Schema s = MakeSchema();
  EXPECT_EQ(s.num_attributes(), 4);
  EXPECT_EQ(s.IndexOf("x"), 0);
  EXPECT_EQ(s.IndexOf("hum"), 3);
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_TRUE(s.Contains("temp"));
  EXPECT_FALSE(s.Contains("Temp"));  // names are case-sensitive
}

TEST(SchemaTest, WireBytes) {
  const Schema s = MakeSchema();
  EXPECT_EQ(s.ProjectionWireBytes({0, 2}), 4);
  EXPECT_EQ(s.ProjectionWireBytes({3}), 4);
  EXPECT_EQ(s.ProjectionWireBytes({}), 0);
}

TEST(SchemaTest, Project) {
  const Schema s = MakeSchema();
  const Schema p = s.Project({2, 0});
  EXPECT_EQ(p.num_attributes(), 2);
  EXPECT_EQ(p.attribute(0).name, "temp");
  EXPECT_EQ(p.attribute(1).name, "x");
}

TEST(RelationTest, AddAndTotals) {
  Relation r("sensors", MakeSchema());
  EXPECT_TRUE(r.empty());
  Tuple t;
  t.node = 1;
  t.values = {0, 0, 20, 50};
  r.Add(t);
  t.node = 2;
  r.Add(t);
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.tuple(0).node, 1);
  EXPECT_EQ(r.name(), "sensors");
}

TEST(RelationDeathTest, ArityMismatchAborts) {
  Relation r("sensors", MakeSchema());
  Tuple t;
  t.values = {1.0};
  EXPECT_DEATH(r.Add(t), "arity mismatch");
}

}  // namespace
}  // namespace sensjoin::data
