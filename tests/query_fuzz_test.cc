// Property fuzzing: for randomly generated join queries over random
// deployments, SENS-Join must return exactly the external join's result —
// the conservative pre-computation must never lose a tuple, whatever the
// mix of theta conditions, absolute values, distances, selections and
// aggregates (Requirements 1 and 2: any number and kind of join
// conditions, arbitrary tuple placements).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/sensjoin.h"

namespace sensjoin {
namespace {

struct AttrSpec {
  const char* name;
  double lo;   // plausible constant range for comparisons
  double hi;
  double diff; // plausible range for difference thresholds
};

const AttrSpec kAttrs[] = {
    {"x", 0, 350, 200},      {"y", 0, 350, 200},
    {"temp", 15, 27, 5},     {"hum", 30, 70, 15},
    {"pres", 1000, 1020, 6}, {"light", 300, 700, 150},
};

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

const char* RandomCmp(Rng& rng) {
  const char* ops[] = {"<", "<=", ">", ">="};
  return ops[rng.UniformInt(0, 3)];
}

/// One join condition referencing both aliases.
std::string RandomJoinCondition(Rng& rng) {
  const AttrSpec& a = kAttrs[rng.UniformInt(0, 5)];
  switch (rng.UniformInt(0, 5)) {
    case 0:  // difference threshold
      return std::string("A.") + a.name + " - B." + a.name + " " +
             RandomCmp(rng) + " " + Num(rng.UniformDouble(0, a.diff));
    case 1:  // absolute difference
      return std::string("|A.") + a.name + " - B." + a.name + "| " +
             RandomCmp(rng) + " " + Num(rng.UniformDouble(0, a.diff));
    case 2:  // distance predicate
      return std::string("distance(A.x, A.y, B.x, B.y) ") + RandomCmp(rng) +
             " " + Num(rng.UniformDouble(50, 450));
    case 3: {  // arithmetic over two attributes
      const AttrSpec& b = kAttrs[rng.UniformInt(0, 5)];
      return std::string("A.") + a.name + " + B." + b.name + " " +
             RandomCmp(rng) + " " +
             Num(rng.UniformDouble(a.lo + b.lo, a.hi + b.hi));
    }
    case 4: {  // scaled difference with unary minus
      const AttrSpec& b = kAttrs[rng.UniformInt(0, 5)];
      return std::string("A.") + a.name + " * 0.5 - -B." + b.name + " " +
             RandomCmp(rng) + " " +
             Num(rng.UniformDouble(a.lo * 0.5 + b.lo, a.hi * 0.5 + b.hi));
    }
    default:  // constant division
      return std::string("(A.") + a.name + " - B." + a.name + ") / 2 " +
             RandomCmp(rng) + " " + Num(rng.UniformDouble(0, a.diff / 2));
  }
}

std::string RandomSelection(Rng& rng, const char* alias) {
  const AttrSpec& a = kAttrs[rng.UniformInt(0, 5)];
  return std::string(alias) + "." + a.name + " " + RandomCmp(rng) + " " +
         Num(rng.UniformDouble(a.lo, a.hi));
}

std::string RandomQuery(Rng& rng) {
  std::string sql = "SELECT ";
  if (rng.NextBool(0.2)) {
    sql += "COUNT(*)";
  } else {
    const int cols = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < cols; ++i) {
      if (i > 0) sql += ", ";
      sql += (rng.NextBool(0.5) ? "A." : "B.");
      sql += kAttrs[rng.UniformInt(0, 5)].name;
    }
  }
  sql += " FROM sensors A, sensors B WHERE ";
  const int conditions = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < conditions; ++i) {
    if (i > 0) sql += " AND ";
    sql += RandomJoinCondition(rng);
  }
  if (rng.NextBool(0.4)) sql += " AND " + RandomSelection(rng, "A");
  if (rng.NextBool(0.4)) sql += " AND " + RandomSelection(rng, "B");
  sql += " ONCE";
  return sql;
}

class QueryFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryFuzzTest, SensJoinAlwaysMatchesExternalJoin) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 120;
  params.placement.area_width_m = 350;
  params.placement.area_height_m = 350;
  params.seed = GetParam();
  auto tb = testbed::Testbed::Create(params);
  ASSERT_TRUE(tb.ok());

  Rng rng(GetParam() * 7919 + 1);
  int executed = 0;
  for (int i = 0; i < 12; ++i) {
    const std::string sql = RandomQuery(rng);
    SCOPED_TRACE(sql);
    auto q = (*tb)->ParseQuery(sql);
    ASSERT_TRUE(q.ok()) << q.status();
    auto ext = (*tb)->MakeExternalJoin().Execute(*q, i);
    auto sens = (*tb)->MakeSensJoin().Execute(*q, i);
    ASSERT_TRUE(ext.ok()) << ext.status();
    ASSERT_TRUE(sens.ok()) << sens.status();
    EXPECT_EQ(ext->result.matched_combinations,
              sens->result.matched_combinations);
    EXPECT_EQ(join::SortedRows(ext->result.rows),
              join::SortedRows(sens->result.rows));
    EXPECT_EQ(ext->result.contributing_nodes,
              sens->result.contributing_nodes);
    ++executed;
  }
  EXPECT_EQ(executed, 12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// The parser/analyzer must reject garbage without crashing.
TEST(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  data::Schema schema({{"x", 2}, {"temp", 2}});
  Rng rng(99);
  const char* pieces[] = {"SELECT", "FROM",  "WHERE", "ONCE",  "AND", "OR",
                          "A",      "B",     ".",     ",",     "(",   ")",
                          "*",      "+",     "-",     "/",     "<",   ">",
                          "=",      "temp",  "x",     "1.5",   "|",   "abs",
                          "min",    "count", "!=",    "<=",    "s"};
  for (int i = 0; i < 3000; ++i) {
    std::string sql;
    const int len = static_cast<int>(rng.UniformInt(1, 18));
    for (int j = 0; j < len; ++j) {
      sql += pieces[rng.UniformInt(0, std::size(pieces) - 1)];
      sql += " ";
    }
    // Must either parse + analyze cleanly or return an error Status;
    // never crash.
    auto q = query::AnalyzedQuery::FromString(sql, schema);
    (void)q;
  }
}

}  // namespace
}  // namespace sensjoin
