#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/join_plan.h"
#include "sensjoin/query/interval_eval.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

// Schema: x(0), y(1), temp(2), hum(3).
data::Schema MakeSchema() {
  return data::Schema({{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}});
}

query::AnalyzedQuery MustAnalyze(const std::string& sql) {
  auto q = query::AnalyzedQuery::FromString(sql, MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status() << " for " << sql;
  return std::move(q).value();
}

// Quantizes x/y at resolution 4 over [0, 260] and temp at 0.1 over [0, 50].
JoinAttrCodec MakeCodec(int flag_bits) {
  DimensionSpec x;
  x.attr_name = "x";
  x.attr_index = 0;
  x.min_val = 0;
  x.max_val = 260;
  x.resolution = 4;
  DimensionSpec y = x;
  y.attr_name = "y";
  y.attr_index = 1;
  DimensionSpec temp;
  temp.attr_name = "temp";
  temp.attr_index = 2;
  temp.min_val = 0;
  temp.max_val = 50;
  temp.resolution = 0.1;
  auto q = Quantizer::Create({x, y, temp});
  SENSJOIN_CHECK(q.ok()) << q.status();
  return JoinAttrCodec(std::move(q).value(), flag_bits);
}

PointSet RandomCollected(const JoinAttrCodec& codec, int n, int num_relations,
                         Rng* rng) {
  std::vector<uint64_t> keys;
  keys.reserve(n);
  const uint8_t all = static_cast<uint8_t>((1u << num_relations) - 1);
  for (int i = 0; i < n; ++i) {
    const double x = rng->UniformDouble(-10, 270);  // includes out-of-range
    const double y = rng->UniformDouble(-10, 270);
    const double t = rng->UniformDouble(-2, 52);
    const uint8_t flags =
        static_cast<uint8_t>(rng->UniformInt(1, all));  // nonempty membership
    keys.push_back(codec.EncodeTuple({x, y, t}, flags));
  }
  PointSet out = codec.EmptySet();
  out.InsertAll(std::move(keys));
  return out;
}

// Exhaustive reference: a nested loop over the eligible keys of each table
// in FROM order that evaluates each join predicate with the tree
// interpreter once its last table is assigned. A key is eligible for a table
// iff its flags include the table's relation.
struct Reference {
  std::vector<uint64_t> filter;
  size_t matched = 0;
  size_t evaluated = 0;
};

Reference ExhaustiveFilter(const query::AnalyzedQuery& q,
                           const JoinAttrCodec& codec,
                           const PointSet& collected) {
  const std::vector<uint64_t>& keys = collected.keys();
  const Quantizer& quant = codec.quantizer();
  std::vector<std::vector<query::Interval>> rows;
  for (uint64_t key : keys) {
    std::vector<query::Interval> row(q.schema().num_attributes());
    const std::vector<query::Interval> cell = codec.KeyIntervals(key);
    for (int d = 0; d < quant.num_dims(); ++d) {
      row[quant.dim(d).attr_index] = cell[d];
    }
    rows.push_back(std::move(row));
  }
  const int num_tables = q.num_tables();
  std::vector<std::vector<const query::Expr*>> preds_at(num_tables);
  for (const auto& p : q.join_predicates()) {
    std::set<int> tables;
    p->CollectTableIndices(&tables);
    preds_at[*tables.rbegin()].push_back(p.get());
  }
  const std::vector<int> rel_bits = TableRelationBits(q);
  std::vector<size_t> picked(num_tables, 0);
  std::vector<const std::vector<query::Interval>*> assignment(num_tables);
  std::vector<char> matched(keys.size(), 0);
  Reference ref;
  auto visit = [&](auto&& self, int t) -> void {
    if (t == num_tables) {
      ++ref.matched;
      for (size_t k : picked) matched[k] = 1;
      return;
    }
    for (size_t k = 0; k < keys.size(); ++k) {
      if (codec.flag_bits() != 0 &&
          !((codec.KeyFlags(keys[k]) >> rel_bits[t]) & 1)) {
        continue;
      }
      picked[t] = k;
      assignment[t] = &rows[k];
      const query::RowIntervalContext ctx(assignment);
      bool alive = true;
      for (const query::Expr* p : preds_at[t]) {
        ++ref.evaluated;
        if (query::EvalTri(*p, ctx) == query::Tri::kFalse) {
          alive = false;
          break;
        }
      }
      if (alive) self(self, t + 1);
    }
  };
  visit(visit, 0);
  for (size_t k = 0; k < keys.size(); ++k) {
    if (matched[k]) ref.filter.push_back(keys[k]);
  }
  return ref;
}

// The core property: the planned, index-probing enumeration agrees with the
// exhaustive reference bit for bit — same filter keys and same number of
// matching combinations — and probe windows only ever save evaluations.
FilterJoinResult ExpectEquivalent(const query::AnalyzedQuery& q,
                                  const JoinAttrCodec& codec,
                                  const PointSet& collected,
                                  const std::string& label) {
  const Reference ref = ExhaustiveFilter(q, codec, collected);
  FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
  EXPECT_EQ(ref.filter, r.filter.keys()) << label;
  EXPECT_EQ(ref.matched, r.combinations_matched) << label;
  EXPECT_LE(r.combinations_evaluated, ref.evaluated) << label;
  return r;
}

TEST(FilterIndexTest, BandJoinMatchesExhaustive) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE |A.temp - B.temp| < 0.9 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  Rng rng(11);
  const PointSet collected = RandomCollected(codec, 80, 1, &rng);
  EXPECT_GT(JoinPlan::ForFilter(q, codec).num_constraints(), 0);
  const FilterJoinResult r = ExpectEquivalent(q, codec, collected, "band");
  EXPECT_GT(r.index_probes, 0u);
  // The probe skips most of the 80 x 80 pairs.
  EXPECT_LT(r.combinations_evaluated, 80u * 80u / 4);
}

TEST(FilterIndexTest, DistanceJoinMatchesExhaustive) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE distance(A.x, A.y, B.x, B.y) < 60 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  Rng rng(12);
  const PointSet collected = RandomCollected(codec, 80, 1, &rng);
  EXPECT_TRUE(JoinPlan::ForFilter(q, codec).num_constraints() > 0);
  const FilterJoinResult r = ExpectEquivalent(q, codec, collected, "distance");
  EXPECT_GT(r.index_probes, 0u);
}

TEST(FilterIndexTest, NoExtractableConstraintEnumeratesEverything) {
  // != never yields a range: the planner extracts nothing and every pair
  // of eligible keys is evaluated.
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp != B.temp ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  EXPECT_EQ(JoinPlan::ForFilter(q, codec).num_constraints(), 0);

  Rng rng(13);
  const PointSet collected = RandomCollected(codec, 50, 1, &rng);
  const FilterJoinResult r = ExpectEquivalent(q, codec, collected, "!=");
  EXPECT_EQ(r.index_probes, 0u);
  EXPECT_EQ(r.combinations_evaluated, collected.size() * collected.size());
}

TEST(FilterIndexTest, RandomizedQueriesMatchExhaustive) {
  // Property: over randomized multi-relation queries mixing band, distance,
  // equality, shifted-difference and unextractable predicates, the planned
  // enumeration is bit-identical to the exhaustive reference.
  const std::vector<std::string> pair_preds = {
      "|$L.temp - $R.temp| < 0.9",
      "|$L.temp - $R.temp| < 2.5",
      "$L.temp - $R.temp > 5",
      "$L.temp = $R.temp",
      "distance($L.x, $L.y, $R.x, $R.y) < 50",
      "distance($L.x, $L.y, $R.x, $R.y) < 120",
      "distance($L.x, $L.y, $R.x, $R.y) > 150",
      "$L.temp != $R.temp",
      "$L.x + 2 * $R.x < 300",
  };
  auto instantiate = [](std::string tmpl, const std::string& l,
                        const std::string& r) {
    for (std::string::size_type p; (p = tmpl.find("$L")) != std::string::npos;)
      tmpl.replace(p, 2, l);
    for (std::string::size_type p; (p = tmpl.find("$R")) != std::string::npos;)
      tmpl.replace(p, 2, r);
    return tmpl;
  };

  Rng rng(77);
  for (int trial = 0; trial < 25; ++trial) {
    const int num_tables = static_cast<int>(rng.UniformInt(2, 3));
    const bool self_join = rng.NextBool(0.5);
    const std::vector<std::string> names = {"A", "B", "C"};
    std::string from;
    for (int t = 0; t < num_tables; ++t) {
      if (t > 0) from += ", ";
      from += (self_join ? "s " : "r" + std::to_string(t) + " ") + names[t];
    }
    // Chain consecutive tables, then sprinkle extra predicates.
    std::string where;
    for (int t = 0; t + 1 < num_tables; ++t) {
      if (t > 0) where += " AND ";
      where += instantiate(
          pair_preds[rng.UniformInt(0, pair_preds.size() - 1)], names[t],
          names[t + 1]);
    }
    const int extras = static_cast<int>(rng.UniformInt(0, 2));
    for (int e = 0; e < extras; ++e) {
      const int l = static_cast<int>(rng.UniformInt(0, num_tables - 1));
      const int r = static_cast<int>(rng.UniformInt(0, num_tables - 1));
      if (l == r) continue;
      where += " AND " + instantiate(
                             pair_preds[rng.UniformInt(0, pair_preds.size() - 1)],
                             names[l], names[r]);
    }
    const std::string sql =
        "SELECT A.hum FROM " + from + " WHERE " + where + " ONCE";
    const auto q = MustAnalyze(sql);
    const JoinAttrCodec codec = MakeCodec(self_join ? 1 : num_tables);
    // Keep 3-way joins small; the reference is cubic.
    const int n = num_tables == 3 ? 30 : 70;
    const PointSet collected =
        RandomCollected(codec, n, self_join ? 1 : num_tables, &rng);
    ExpectEquivalent(q, codec, collected, sql);
  }
}

TEST(FilterIndexTest, PlanOrdersTablesAndExtractsConstraints) {
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B, s C "
      "WHERE |A.temp - B.temp| < 0.5 "
      "AND distance(B.x, B.y, C.x, C.y) < 60 ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  const JoinPlan plan = JoinPlan::ForFilter(q, codec);
  ASSERT_EQ(plan.levels().size(), 3u);
  // The temp band gives one probe; the distance predicate gives a box (two
  // probes) once both of its tables are placed.
  EXPECT_GE(plan.num_constraints(), 2);
  // Every predicate is scheduled exactly once.
  size_t preds = 0;
  for (const auto& level : plan.levels()) preds += level.preds.size();
  EXPECT_EQ(preds, 2u);
  // Level 0 never has probes (nothing to probe against yet).
  EXPECT_TRUE(plan.levels()[0].probes.empty());
}

TEST(FilterIndexTest, ExactPlanKeepsFromOrderAndProbesAnyAttribute) {
  // hum is not a quantizer dimension: the filter plan cannot probe it, the
  // exact plan can.
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B, s C "
      "WHERE |B.temp - C.temp| < 0.5 AND A.hum < B.hum ONCE");
  const JoinAttrCodec codec = MakeCodec(1);
  const JoinPlan exact = JoinPlan::ForExact(q);
  ASSERT_EQ(exact.levels().size(), 3u);
  for (int l = 0; l < 3; ++l) EXPECT_EQ(exact.levels()[l].table, l);
  EXPECT_EQ(exact.num_constraints(), 2);  // B.hum at level 1, C.temp at 2
  EXPECT_EQ(JoinPlan::ForFilter(q, codec).num_constraints(), 1);
}

// IncrementalJoinFilter must produce exactly the from-scratch filter after
// every epoch's edit, whichever maintenance path it takes.
TEST(IncrementalJoinFilterTest, RandomEditsMatchFromScratch) {
  const std::vector<std::pair<std::string, int>> queries = {
      {"SELECT A.hum FROM s A, s B WHERE |A.temp - B.temp| < 0.4", 1},
      {"SELECT A.hum FROM s A, s B "
       "WHERE distance(A.x, A.y, B.x, B.y) < 25 AND A.temp > B.temp", 1},
      {"SELECT A.hum FROM hot A, cold B WHERE A.temp - B.temp > 20", 2},
      {"SELECT A.hum FROM s A, s B, s C "
       "WHERE |A.temp - B.temp| < 0.3 AND distance(B.x, B.y, C.x, C.y) < 20",
       1},
      {"SELECT A.hum FROM r0 A, r1 B, r2 C "
       "WHERE A.temp != B.temp AND |B.temp - C.temp| < 0.5 "
       "AND C.x + 2 * A.x < 120",
       3},
  };
  Rng rng(31);
  for (const auto& [where, num_relations] : queries) {
    const auto q = MustAnalyze(where + " ONCE");
    const JoinAttrCodec codec = MakeCodec(num_relations);
    const std::vector<uint64_t> universe =
        RandomCollected(codec, 160, num_relations, &rng).keys();
    std::vector<char> present(universe.size(), 0);
    for (char& p : present) p = rng.NextBool(0.5) ? 1 : 0;

    IncrementalJoinFilter cache;
    std::vector<uint64_t> added;
    std::vector<uint64_t> removed;
    for (int step = 0; step < 60; ++step) {
      if (step % 5 == 4) {
        // Only keys outside the current filter leave: nothing to recompute.
        for (size_t i = 0; i < universe.size() && removed.size() < 3; ++i) {
          if (present[i] && !cache.last().filter.Contains(universe[i]) &&
              rng.NextBool(0.3)) {
            present[i] = 0;
            removed.push_back(universe[i]);
          }
        }
      } else if (step % 5 != 0) {
        const int edits = static_cast<int>(rng.UniformInt(1, 4));
        for (int e = 0; e < edits; ++e) {
          const size_t i = rng.UniformInt(0, universe.size() - 1);
          present[i] = !present[i];
          auto& list = present[i] ? added : removed;
          auto& other = present[i] ? removed : added;
          const auto it = std::find(other.begin(), other.end(), universe[i]);
          if (it != other.end()) {
            other.erase(it);  // toggled back within the step
          } else {
            list.push_back(universe[i]);
          }
        }
      }
      std::vector<uint64_t> keys;
      for (size_t i = 0; i < universe.size(); ++i) {
        if (present[i]) keys.push_back(universe[i]);
      }
      const PointSet collected = PointSet::FromKeys(codec.layout(), keys);
      const FilterJoinResult& got =
          cache.Update(q, codec, collected, added, removed);
      const FilterJoinResult want = ComputeJoinFilter(q, codec, collected);
      ASSERT_EQ(want.filter.keys(), got.filter.keys())
          << where << " at step " << step;
      added.clear();
      removed.clear();
    }
    EXPECT_GT(cache.reuses(), 0u) << where;
    EXPECT_GT(cache.incremental_updates(), 0u) << where;
    EXPECT_GT(cache.full_recomputes(), 0u) << where;
  }
}

}  // namespace
}  // namespace sensjoin::join
