#include "sensjoin/join/result.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/query/expr_eval.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

// Schema: temp(0), hum(1).
data::Schema MakeSchema() { return data::Schema({{"temp", 2}, {"hum", 2}}); }

data::Tuple MakeTuple(sim::NodeId node, double temp, double hum) {
  data::Tuple t;
  t.node = node;
  t.values = {temp, hum};
  return t;
}

query::AnalyzedQuery MustAnalyze(const std::string& sql) {
  auto q = query::AnalyzedQuery::FromString(sql, MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status();
  return std::move(q).value();
}

std::vector<double> Row(const JoinResult& r, size_t i) {
  return {r.rows[i].begin(), r.rows[i].end()};
}

TEST(ComputeExactJoinTest, EquiJoinRowsAndContributors) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B WHERE A.temp = B.temp ONCE");
  const std::vector<data::Tuple> tuples = {
      MakeTuple(1, 20.0, 40), MakeTuple(2, 21.0, 50), MakeTuple(3, 20.0, 60)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const JoinResult r = ComputeExactJoin(q, {side, side});
  // SQL semantics: (1,1), (1,3), (3,1), (3,3), (2,2) all have equal temps.
  EXPECT_EQ(r.matched_combinations, 5u);
  EXPECT_EQ(r.rows.size(), 5u);
  EXPECT_EQ(r.contributing_nodes, (std::vector<sim::NodeId>{1, 2, 3}));
  EXPECT_EQ(r.column_labels, (std::vector<std::string>{"A.hum", "B.hum"}));
}

TEST(ComputeExactJoinTest, ThetaJoinIsAsymmetric) {
  const auto q = MustAnalyze(
      "SELECT A.hum FROM s A, s B WHERE A.temp - B.temp > 0.5 ONCE");
  const std::vector<data::Tuple> tuples = {MakeTuple(1, 20.0, 40),
                                           MakeTuple(2, 21.0, 50)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const JoinResult r = ComputeExactJoin(q, {side, side});
  ASSERT_EQ(r.matched_combinations, 1u);  // only (2, 1)
  EXPECT_DOUBLE_EQ(r.rows[0][0], 50.0);
}

TEST(ComputeExactJoinTest, DifferentCandidateListsPerTable) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM hot A, cold B WHERE A.temp > B.temp ONCE");
  const data::Tuple hot = MakeTuple(1, 30.0, 10);
  const data::Tuple cold1 = MakeTuple(2, 10.0, 20);
  const data::Tuple cold2 = MakeTuple(3, 40.0, 30);
  const JoinResult r = ComputeExactJoin(q, {{&hot}, {&cold1, &cold2}});
  ASSERT_EQ(r.matched_combinations, 1u);
  EXPECT_EQ(Row(r, 0), (std::vector<double>{10.0, 20.0}));
}

TEST(ComputeExactJoinTest, Aggregates) {
  const auto q = MustAnalyze(
      "SELECT COUNT(*), MIN(A.hum - B.hum), MAX(A.hum), AVG(B.hum), "
      "SUM(A.hum) FROM s A, s B WHERE A.temp > B.temp ONCE");
  const std::vector<data::Tuple> tuples = {
      MakeTuple(1, 20.0, 40), MakeTuple(2, 21.0, 50), MakeTuple(3, 22.0, 90)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const JoinResult r = ComputeExactJoin(q, {side, side});
  // Matches: (2,1), (3,1), (3,2).
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0], 3.0);                       // COUNT
  EXPECT_DOUBLE_EQ(r.rows[0][1], 10.0);                      // MIN diff
  EXPECT_DOUBLE_EQ(r.rows[0][2], 90.0);                      // MAX A.hum
  EXPECT_DOUBLE_EQ(r.rows[0][3], (40.0 + 40.0 + 50.0) / 3);  // AVG B.hum
  EXPECT_DOUBLE_EQ(r.rows[0][4], 50.0 + 90.0 + 90.0);        // SUM A.hum
}

TEST(ComputeExactJoinTest, EmptyAggregatesYieldCountZero) {
  const auto q = MustAnalyze(
      "SELECT COUNT(*) FROM s A, s B WHERE A.temp - B.temp > 100 ONCE");
  const data::Tuple t = MakeTuple(1, 20.0, 40);
  const JoinResult r = ComputeExactJoin(q, {{&t}, {&t}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0], 0.0);
  EXPECT_EQ(r.matched_combinations, 0u);
}

TEST(ComputeExactJoinTest, SelectStarConcatenatesAllAttributes) {
  const auto q = MustAnalyze(
      "SELECT * FROM s A, s B WHERE A.temp = B.temp ONCE");
  const data::Tuple t = MakeTuple(1, 20.0, 40);
  const JoinResult r = ComputeExactJoin(q, {{&t}, {&t}});
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(Row(r, 0), (std::vector<double>{20, 40, 20, 40}));
  EXPECT_EQ(r.column_labels,
            (std::vector<std::string>{"A.temp", "A.hum", "B.temp", "B.hum"}));
}

TEST(ComputeExactJoinTest, ThreeWayJoin) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum, C.hum FROM s A, s B, s C "
      "WHERE A.temp < B.temp AND B.temp < C.temp ONCE");
  const std::vector<data::Tuple> tuples = {
      MakeTuple(1, 1.0, 10), MakeTuple(2, 2.0, 20), MakeTuple(3, 3.0, 30)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const JoinResult r = ComputeExactJoin(q, {side, side, side});
  ASSERT_EQ(r.matched_combinations, 1u);
  EXPECT_EQ(Row(r, 0), (std::vector<double>{10, 20, 30}));
}

TEST(RowTableTest, EmptyResultHasNoRowsOrNodeSets) {
  const auto q = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B WHERE A.temp - B.temp > 100 ONCE");
  const data::Tuple t = MakeTuple(1, 20.0, 40);
  const JoinResult r = ComputeExactJoin(q, {{&t}, {&t}});
  EXPECT_TRUE(r.rows.empty());
  EXPECT_EQ(r.rows.size(), 0u);
  EXPECT_EQ(r.rows.width(), 2u);
  EXPECT_EQ(r.row_nodes.size(), 0u);
  EXPECT_EQ(r.rows.begin(), r.rows.end());
}

TEST(RowTableTest, SelectStarIsTablesTimesSchemaWide) {
  const auto q = MustAnalyze(
      "SELECT * FROM s A, s B, s C WHERE A.temp <= B.temp ONCE");
  const std::vector<data::Tuple> tuples = {MakeTuple(1, 20.0, 40),
                                           MakeTuple(2, 21.0, 50)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const JoinResult r = ComputeExactJoin(q, {side, side, side});
  EXPECT_EQ(r.rows.width(), 3u * 2u);
  ASSERT_EQ(r.rows.size(), 6u);  // 3 (A, B) pairs times 2 C
  size_t seen = 0;
  for (std::span<const double> row : r.rows) {
    EXPECT_EQ(row.size(), 6u);
    ++seen;
  }
  EXPECT_EQ(seen, r.rows.size());
  // (A, B, C) = (1, 1, 1) has one contributor; (1, 2, 1) has two.
  ASSERT_EQ(r.row_nodes.size(), r.rows.size());
  EXPECT_EQ(std::vector<sim::NodeId>(r.row_nodes[0].begin(),
                                     r.row_nodes[0].end()),
            (std::vector<sim::NodeId>{1}));
  EXPECT_EQ(std::vector<sim::NodeId>(r.row_nodes[2].begin(),
                                     r.row_nodes[2].end()),
            (std::vector<sim::NodeId>{1, 2}));
}

TEST(RowTableTest, AggregateHasOneRowAndNoNodeSets) {
  const auto q = MustAnalyze(
      "SELECT COUNT(*), AVG(B.hum) FROM s A, s B WHERE A.temp < B.temp ONCE");
  const std::vector<data::Tuple> tuples = {MakeTuple(1, 20.0, 40),
                                           MakeTuple(2, 21.0, 50)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const JoinResult r = ComputeExactJoin(q, {side, side});
  EXPECT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows.width(), 2u);
  EXPECT_EQ(r.row_nodes.size(), 0u);
  EXPECT_EQ(Row(r, 0), (std::vector<double>{1.0, 50.0}));
}

TEST(RowTableTest, RowOrderIsTotalAndMatchesNaNBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  RowTable a(2);
  a.Append(std::vector<double>{2, nan});
  a.Append(std::vector<double>{1, 5});
  a.Append(std::vector<double>{2, nan});
  RowTable b(2);
  b.Append(std::vector<double>{2, nan});
  b.Append(std::vector<double>{1, 5});
  EXPECT_EQ(CompareRows(a[0], a[2]), std::strong_ordering::equal);
  EXPECT_EQ(CompareRows(a[1], a[0]), std::strong_ordering::less);
  EXPECT_EQ(CommonRows(a, b), 2u);
  const RowTable sorted = SortedRows(a);
  EXPECT_EQ(CompareRows(sorted[0], a[1]), std::strong_ordering::equal);
  // Element-wise equality keeps IEEE semantics: NaN != NaN.
  EXPECT_FALSE(a == a);
}


// ---- Differential test against a brute-force oracle ----------------------

// Schema: x(0), y(1), temp(2), hum(3).
data::Schema MakeWideSchema() {
  return data::Schema({{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}});
}

// Plain nested loops in FROM order with the scalar evaluator: every
// combination is tested against every join predicate once all tables are
// assigned. Aggregates fold in the same order with the same operations as
// the documented SQL semantics (MIN/MAX/AVG of nothing are NaN).
JoinResult BruteForceJoin(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table) {
  const int num_tables = q.num_tables();
  const size_t num_items = q.select().size();
  JoinResult out;
  out.rows = RowTable(q.select_star()
                          ? num_tables * q.schema().num_attributes()
                          : num_items);
  std::vector<double> sum(num_items, 0.0);
  std::vector<double> min(num_items, std::numeric_limits<double>::infinity());
  std::vector<double> max(num_items, -std::numeric_limits<double>::infinity());
  uint64_t count = 0;
  std::vector<const data::Tuple*> assignment(num_tables, nullptr);
  std::vector<sim::NodeId> contributors;
  auto visit = [&](auto&& self, int t) -> void {
    if (t < num_tables) {
      for (const data::Tuple* tup : per_table[t]) {
        assignment[t] = tup;
        self(self, t + 1);
      }
      return;
    }
    const query::TupleContext ctx(assignment);
    for (const auto& p : q.join_predicates()) {
      if (!query::EvalPredicate(*p, ctx)) return;
    }
    ++out.matched_combinations;
    std::vector<sim::NodeId> nodes;
    for (const data::Tuple* tup : assignment) nodes.push_back(tup->node);
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    contributors.insert(contributors.end(), nodes.begin(), nodes.end());
    if (q.has_aggregates()) {
      ++count;
      for (size_t i = 0; i < num_items; ++i) {
        const query::SelectItem& item = q.select()[i];
        const double v =
            item.expr != nullptr ? query::EvalScalar(*item.expr, ctx) : 1.0;
        min[i] = std::min(min[i], v);
        max[i] = std::max(max[i], v);
        sum[i] += v;
      }
      return;
    }
    std::vector<double> row;
    if (q.select_star()) {
      for (const data::Tuple* tup : assignment) {
        row.insert(row.end(), tup->values.begin(), tup->values.end());
      }
    } else {
      for (const query::SelectItem& item : q.select()) {
        row.push_back(query::EvalScalar(*item.expr, ctx));
      }
    }
    out.rows.Append(row);
    out.row_nodes.Append(nodes);
  };
  visit(visit, 0);
  if (q.has_aggregates()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<double> row;
    for (size_t i = 0; i < num_items; ++i) {
      switch (q.select()[i].aggregate) {
        case query::AggregateKind::kMin: row.push_back(count ? min[i] : nan); break;
        case query::AggregateKind::kMax: row.push_back(count ? max[i] : nan); break;
        case query::AggregateKind::kSum: row.push_back(sum[i]); break;
        case query::AggregateKind::kAvg:
          row.push_back(count ? sum[i] / static_cast<double>(count) : nan);
          break;
        case query::AggregateKind::kCount:
          row.push_back(static_cast<double>(count));
          break;
        case query::AggregateKind::kNone: ADD_FAILURE(); break;
      }
    }
    out.rows.Append(row);
  }
  std::sort(contributors.begin(), contributors.end());
  contributors.erase(std::unique(contributors.begin(), contributors.end()),
                     contributors.end());
  out.contributing_nodes = std::move(contributors);
  return out;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void ExpectSameJoin(const JoinResult& want, const JoinResult& got,
                    const std::string& label) {
  EXPECT_EQ(want.matched_combinations, got.matched_combinations) << label;
  ASSERT_EQ(want.rows.size(), got.rows.size()) << label;
  ASSERT_EQ(want.rows.width(), got.rows.width()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(want.rows[r].size(), got.rows[r].size()) << label;
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      ASSERT_EQ(Bits(want.rows[r][c]), Bits(got.rows[r][c]))
          << label << " row " << r << " column " << c << ": "
          << want.rows[r][c] << " vs " << got.rows[r][c];
    }
  }
  EXPECT_EQ(want.row_nodes, got.row_nodes) << label;
  EXPECT_EQ(want.contributing_nodes, got.contributing_nodes) << label;
}

// Random finite tuples on coarse grids, so equal values (ties) are common.
// A few nodes appear twice, as a node can hold candidates for two tables.
std::vector<data::Tuple> GridTuples(int n, sim::NodeId first_node, Rng* rng) {
  std::vector<data::Tuple> out;
  for (int i = 0; i < n; ++i) {
    data::Tuple t;
    t.node = first_node + static_cast<sim::NodeId>(
                              rng->NextBool(0.1) ? rng->UniformInt(0, i) : i);
    t.values = {2.5 * static_cast<double>(rng->UniformInt(0, 40)),
                2.5 * static_cast<double>(rng->UniformInt(0, 40)),
                0.25 * static_cast<double>(rng->UniformInt(-8, 60)),
                1.5 * static_cast<double>(rng->UniformInt(0, 20))};
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<const data::Tuple*> Pointers(const std::vector<data::Tuple>& v) {
  std::vector<const data::Tuple*> out;
  for (const data::Tuple& t : v) out.push_back(&t);
  return out;
}

TEST(ExactJoinDifferentialTest, MatchesBruteForceOracle) {
  const std::vector<std::string> queries = {
      // Band, half-band and box joins.
      "SELECT A.hum, B.hum FROM s A, s B WHERE |A.temp - B.temp| < 1.5",
      "SELECT A.hum, B.temp FROM s A, s B WHERE A.temp - B.temp > 2",
      "SELECT A.x, B.y FROM s A, s B "
      "WHERE distance(A.x, A.y, B.x, B.y) < 20",
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE distance(A.x, A.y, B.x, B.y) < 30 AND A.temp <= B.temp",
      // Large literals next to small values.
      "SELECT A.temp, B.temp FROM s A, s B "
      "WHERE A.temp + 1000000 - B.temp > 1000002",
      // Division and multiplication on the probed path.
      "SELECT A.temp, B.temp FROM s A, s B WHERE A.temp / 3 < B.temp",
      "SELECT A.temp, B.temp FROM s A, s B WHERE A.temp / 3 = B.temp",
      "SELECT A.temp, B.temp FROM s A, s B WHERE B.temp * 3 >= A.temp",
      // Three-way chain and star.
      "SELECT A.hum, B.hum, C.hum FROM s A, s B, s C "
      "WHERE |A.temp - B.temp| < 1 AND distance(B.x, B.y, C.x, C.y) < 25",
      "SELECT A.hum, B.hum, C.hum FROM s A, s B, s C "
      "WHERE A.temp - B.temp > 3 AND |A.x - C.x| <= 5",
      // OR has no probe.
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE A.temp < B.temp - 4 OR A.hum = B.hum",
      "SELECT * FROM s A, s B WHERE A.temp = B.temp AND A.x < B.x",
      "SELECT SUM(A.temp - B.temp), AVG(B.hum), MIN(A.x + B.y), "
      "MAX(A.temp), COUNT(*) FROM s A, s B WHERE |A.temp - B.temp| < 2",
      "SELECT MIN(A.hum), AVG(A.hum), COUNT(*) FROM s A, s B "
      "WHERE A.temp - B.temp > 1000",
      // Distinct relations get their own candidate lists.
      "SELECT A.hum, B.hum FROM hot A, cold B WHERE A.temp > B.temp + 5",
      "SELECT A.hum, B.hum, C.x FROM hot A, cold B, hot C "
      "WHERE A.temp - B.temp < 1 AND |B.temp - C.temp| < 0.5",
      // An expression column next to plain columns: both projection paths.
      "SELECT A.temp - B.temp, B.hum, A.x FROM s A, s B "
      "WHERE |A.temp - B.temp| < 1.5",
      // A tuple matches itself on a shared list: node sets of one and two
      // contributors in one result.
      "SELECT A.hum, B.x FROM s A, s B WHERE A.temp >= B.temp",
      // sqrt of a negative difference is NaN; rows compare bitwise.
      "SELECT sqrt(A.temp - B.temp), B.hum FROM s A, s B "
      "WHERE |A.temp - B.temp| < 3",
  };
  Rng rng(2024);
  for (const std::string& where : queries) {
    auto parsed = query::AnalyzedQuery::FromString(where + " ONCE",
                                                   MakeWideSchema());
    ASSERT_TRUE(parsed.ok()) << parsed.status() << " for " << where;
    const query::AnalyzedQuery& q = *parsed;
    for (int trial = 0; trial < 4; ++trial) {
      const int n = q.num_tables() == 3 ? 25 : 70;
      std::vector<data::Tuple> first = GridTuples(n, 1, &rng);
      std::vector<data::Tuple> second = GridTuples(n, 1000, &rng);
      if (trial % 2 == 1) {
        // Off-grid values, and tuples sitting exactly on (and one ulp
        // around) the division boundary of the first relation's values.
        for (data::Tuple& t : second) {
          t.values[2] = rng.UniformDouble(-2, 15);
        }
        for (size_t i = 0; i < 12 && i < first.size(); ++i) {
          const double edge = first[i].values[2] / 3;
          second[3 * i % second.size()].values[2] = edge;
          second[(3 * i + 1) % second.size()].values[2] =
              std::nextafter(edge, 1e9);
          second[(3 * i + 2) % second.size()].values[2] =
              std::nextafter(edge, -1e9);
        }
      }
      const std::vector<const data::Tuple*> a = Pointers(first);
      const std::vector<const data::Tuple*> b = Pointers(second);
      std::vector<std::vector<const data::Tuple*>> per_table;
      const std::vector<std::string> relations = q.RelationNames();
      for (int t = 0; t < q.num_tables(); ++t) {
        // Self-joins share one list; "cold" takes the second list.
        const bool cold = q.table(t).relation == "cold";
        per_table.push_back(relations.size() == 1 && trial % 2 == 1 && t > 0
                                ? b
                                : (cold ? b : a));
      }
      const std::string label = where + " / trial " + std::to_string(trial);
      ExpectSameJoin(BruteForceJoin(q, per_table),
                     ComputeExactJoin(q, per_table), label);
    }
  }
}

}  // namespace
}  // namespace sensjoin::join
