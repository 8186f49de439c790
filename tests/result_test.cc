#include "sensjoin/join/result.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/join_plan.h"
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

std::vector<int> Items(const PodBuffer<int>& b) {
  return {b.data(), b.data() + b.size()};
}

TEST(PodBufferTest, CopiesShareUntilEitherSideAppends) {
  PodBuffer<int> a;
  a.Append(std::vector<int>{1, 2, 3});
  PodBuffer<int> b = a;
  EXPECT_EQ(a.data(), b.data());  // one block
  EXPECT_EQ(a, b);
  b.Append(std::vector<int>{4});
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(Items(a), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(Items(b), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_FALSE(a == b);

  // The source side appending leaves the copy alone too, and the copy, now
  // the block's only holder, appends in place.
  PodBuffer<int> c = a;
  a.Append(std::vector<int>{5, 6});
  EXPECT_EQ(Items(a), (std::vector<int>{1, 2, 3, 5, 6}));
  EXPECT_EQ(Items(c), (std::vector<int>{1, 2, 3}));
  const int* before = c.data();
  c.Append(std::vector<int>{7});
  EXPECT_EQ(Items(c), (std::vector<int>{1, 2, 3, 7}));
  EXPECT_EQ(c.data(), before);

  // Copy assignment shares as well; the old block is released.
  c = b;
  EXPECT_EQ(c.data(), b.data());
  c.Append(std::vector<int>{8});
  EXPECT_EQ(Items(b), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(Items(c), (std::vector<int>{1, 2, 3, 4, 8}));
}

TEST(PodBufferTest, MovedFromAndSelfAssignedBuffers) {
  PodBuffer<double> a;
  a.Append(std::vector<double>{1.5, 2.5});
  PodBuffer<double> shared = a;
  PodBuffer<double> moved = std::move(a);
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(moved, shared);
  // A moved-from buffer is empty and usable.
  a.Append(std::vector<double>{9.0});
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.data()[0], 9.0);
  EXPECT_EQ(moved.size(), 2u);

  PodBuffer<double>& alias = moved;
  moved = alias;
  EXPECT_EQ(moved, shared);
  moved = std::move(alias);
  EXPECT_EQ(moved, shared);
  moved.Append(std::vector<double>{3.5});
  EXPECT_EQ(shared.size(), 2u);
  EXPECT_EQ(moved.size(), 3u);

  // Equality is element-wise: equal contents in distinct blocks are equal,
  // and empty buffers equal each other whatever their history.
  PodBuffer<double> rebuilt;
  rebuilt.Append(std::vector<double>{1.5, 2.5});
  EXPECT_EQ(rebuilt, shared);
  EXPECT_EQ(PodBuffer<double>(), PodBuffer<double>(PodBuffer<double>()));
}

TEST(PodBufferTest, CopiedResultsKeepTheirOwnRows) {
  RowTable rows(2);
  rows.Append(std::vector<double>{1, 2});
  NodeSets nodes;
  nodes.Append(std::vector<sim::NodeId>{4, 7});
  RowTable rows_copy = rows;
  NodeSets nodes_copy = nodes;
  rows_copy.Append(std::vector<double>{3, 4});
  nodes.Append(std::vector<sim::NodeId>{9});
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows_copy.size(), 2u);
  EXPECT_EQ(nodes.size(), 2u);
  ASSERT_EQ(nodes_copy.size(), 1u);
  EXPECT_EQ(std::vector<sim::NodeId>(nodes_copy[0].begin(),
                                     nodes_copy[0].end()),
            (std::vector<sim::NodeId>{4, 7}));
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

// ---- Group joins: identical members are computed once ---------------------

// One join predicate between tables `a` and `b`: a band, a half-band, a
// distance, an OR (no probe) or a != (no probe), with threshold `d`.
struct PredSpec {
  int kind = 0;
  char a = 'A';
  char b = 'B';
  double d = 0.0;
};

// A member: a SELECT list (index into the arity's list) and its predicates.
struct MemberSpec {
  int select = 0;
  std::vector<PredSpec> preds;
};

// Prints `v` so that it reads back to the same double.
std::string Exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string PredSql(const PredSpec& p) {
  const std::string a(1, p.a);
  const std::string b(1, p.b);
  switch (p.kind) {
    case 0:
      return "|" + a + ".temp - " + b + ".temp| < " + Exact(p.d);
    case 1:
      return a + ".temp - " + b + ".temp > " + Exact(p.d);
    case 2:
      return "distance(" + a + ".x, " + a + ".y, " + b + ".x, " + b +
             ".y) < " + Exact(p.d);
    case 3:
      return "(" + a + ".temp < " + b + ".temp - " + Exact(p.d) + " OR " +
             a + ".hum = " + b + ".hum)";
    default:
      return a + ".hum <> " + b + ".hum + " + Exact(p.d);
  }
}

const std::vector<std::string>& SelectLists(int num_tables) {
  static const std::vector<std::string> two = {
      "A.hum, B.hum",
      "A.temp - B.temp, B.x",
      "*",
      "sqrt(A.temp - B.temp), A.y",
      "COUNT(*), SUM(A.temp - B.temp), MIN(B.hum), AVG(A.x)",
      "MAX(A.hum + B.hum), COUNT(*)",
  };
  static const std::vector<std::string> three = {
      "A.hum, B.hum, C.hum",
      "*",
      "A.x - C.x, B.temp",
      "COUNT(*), SUM(C.temp), MIN(A.hum - B.hum)",
  };
  return num_tables == 3 ? three : two;
}

std::string MemberSql(const MemberSpec& m, int num_tables) {
  std::string sql = "SELECT " + SelectLists(num_tables)[m.select] + " FROM " +
                    (num_tables == 3 ? "s A, s B, s C" : "s A, s B") +
                    " WHERE ";
  for (size_t i = 0; i < m.preds.size(); ++i) {
    if (i > 0) sql += " AND ";
    sql += PredSql(m.preds[i]);
  }
  return sql + " ONCE";
}

PredSpec RandomPred(char a, char b, Rng* rng) {
  PredSpec p;
  p.kind = static_cast<int>(rng->UniformInt(0, 4));
  p.a = a;
  p.b = b;
  // Thresholds on the tuples' grids tie with values; off-grid ones do not.
  const bool grid = rng->NextBool(0.5);
  switch (p.kind) {
    case 0:  // narrow bands hold few hits per row, wide ones many
      p.d = grid ? 0.25 * static_cast<double>(rng->UniformInt(0, 12))
                 : rng->UniformDouble(0.05, 3);
      break;
    case 1:
      p.d = grid ? 0.25 * static_cast<double>(rng->UniformInt(-8, 48))
                 : rng->UniformDouble(-2, 12);
      break;
    case 2:
      p.d = grid ? 2.5 * static_cast<double>(rng->UniformInt(0, 12))
                 : rng->UniformDouble(2, 40);
      break;
    default:
      p.d = grid ? 0.25 * static_cast<double>(rng->UniformInt(0, 16))
                 : rng->UniformDouble(0, 4);
      break;
  }
  return p;
}

MemberSpec RandomMember(int num_tables, Rng* rng) {
  MemberSpec m;
  m.select = static_cast<int>(
      rng->UniformInt(0, std::ssize(SelectLists(num_tables)) - 1));
  m.preds.push_back(RandomPred('A', 'B', rng));
  if (num_tables == 3) {
    m.preds.push_back(RandomPred(rng->NextBool(0.5) ? 'A' : 'B', 'C', rng));
  } else if (rng->NextBool(0.3)) {
    m.preds.push_back(RandomPred('A', 'B', rng));
  }
  return m;
}

TEST(ExactJoinGroupDifferentialTest, EveryMemberMatchesItsSoloJoinAndOracle) {
  Rng rng(77);
  size_t duplicates = 0;
  size_t near_duplicates = 0;
  for (int group = 0; group < 90; ++group) {
    const int num_tables = group % 4 == 3 ? 3 : 2;
    const int sizes_2way[] = {0, 6, 70, 260};
    const int sizes_3way[] = {0, 5, 24, 40};
    const int n = num_tables == 3 ? sizes_3way[rng.UniformInt(0, 3)]
                                  : sizes_2way[rng.UniformInt(0, 3)];
    const bool with_nan = rng.NextBool(0.3);

    // The members: fresh ones, exact duplicates, and near duplicates whose
    // first literal moves by one ulp (the same text at 6 digits).
    const int size = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<MemberSpec> specs;
    for (int i = 0; i < size; ++i) {
      if (!specs.empty() && rng.NextBool(0.25)) {
        specs.push_back(specs[rng.UniformInt(0, std::ssize(specs) - 1)]);
        ++duplicates;
      } else if (!specs.empty() && rng.NextBool(0.1)) {
        MemberSpec m = specs[rng.UniformInt(0, std::ssize(specs) - 1)];
        m.preds[0].d = std::nextafter(m.preds[0].d, 1e9);
        specs.push_back(m);
        ++near_duplicates;
      } else {
        specs.push_back(RandomMember(num_tables, &rng));
      }
    }
    std::vector<query::AnalyzedQuery> queries;
    std::vector<std::string> sqls;
    for (const MemberSpec& m : specs) {
      sqls.push_back(MemberSql(m, num_tables));
      auto q = query::AnalyzedQuery::FromString(sqls.back(), MakeWideSchema());
      ASSERT_TRUE(q.ok()) << q.status() << " for " << sqls.back();
      queries.push_back(std::move(q).value());
    }
    std::vector<const query::AnalyzedQuery*> members;
    for (const query::AnalyzedQuery& q : queries) members.push_back(&q);

    std::vector<data::Tuple> first = GridTuples(n, 1, &rng);
    std::vector<data::Tuple> second = GridTuples(n, 1000, &rng);
    if (with_nan) {
      for (std::vector<data::Tuple>* side : {&first, &second}) {
        for (data::Tuple& t : *side) {
          if (rng.NextBool(0.1)) {
            t.values[rng.UniformInt(0, 3)] =
                std::numeric_limits<double>::quiet_NaN();
          }
        }
      }
    }
    const std::vector<const data::Tuple*> a = Pointers(first);
    const std::vector<const data::Tuple*> b = Pointers(second);
    std::vector<std::vector<const data::Tuple*>> per_table = {a, a};
    if (group % 2 == 1) per_table[1] = b;
    if (num_tables == 3) per_table.push_back(group % 3 == 0 ? b : a);

    const std::vector<JoinResult> got = ComputeExactJoins(members, per_table);
    ASSERT_EQ(got.size(), members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      const std::string label = "group " + std::to_string(group) +
                                " member " + std::to_string(i) + ": " +
                                sqls[i];
      const JoinResult solo = ComputeExactJoin(*members[i], per_table);
      ExpectSameJoin(BruteForceJoin(*members[i], per_table), got[i], label);
      ExpectSameJoin(solo, got[i], label);
      EXPECT_EQ(solo.column_labels, got[i].column_labels) << label;
      EXPECT_EQ(got[i].combinations_evaluated, solo.combinations_evaluated)
          << label;
    }
  }
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(near_duplicates, 0u);
}

TEST(ExactJoinGroupTest, IdenticalMembersShareOneResult) {
  const auto q1 = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B WHERE A.temp - B.temp > 0.5 ONCE");
  const auto q2 = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B WHERE A.temp - B.temp > 0.5 ONCE");
  // One ulp apart: the same text at 6 significant digits.
  const auto q3 = MustAnalyze(
      "SELECT A.hum, B.hum FROM s A, s B "
      "WHERE A.temp - B.temp > 0.50000000000000011 ONCE");
  const auto relabeled = MustAnalyze(
      "SELECT A.hum AS h, B.hum FROM s A, s B WHERE A.temp - B.temp > 0.5 "
      "ONCE");
  EXPECT_TRUE(SameExactJoin(q1, q2));
  EXPECT_FALSE(SameExactJoin(q1, q3));
  EXPECT_EQ(q1.join_predicates()[0]->ToString(),
            q3.join_predicates()[0]->ToString());
  EXPECT_FALSE(SameExactJoin(q1, relabeled));

  const std::vector<data::Tuple> tuples = {MakeTuple(1, 20.0, 40),
                                           MakeTuple(2, 20.5, 50),
                                           MakeTuple(3, 22.0, 60)};
  std::vector<const data::Tuple*> side;
  for (const auto& t : tuples) side.push_back(&t);
  const std::vector<const query::AnalyzedQuery*> members = {&q1, &q2, &q3,
                                                            &relabeled};
  const std::vector<JoinResult> got = ComputeExactJoins(members, {side, side});
  ASSERT_EQ(got.size(), 4u);
  // (2, 1) differs by exactly 0.5, which passes neither threshold.
  EXPECT_EQ(got[0].matched_combinations, 2u);
  EXPECT_EQ(got[1].matched_combinations, 2u);
  EXPECT_EQ(got[2].matched_combinations, 2u);
  EXPECT_EQ(got[3].column_labels, (std::vector<std::string>{"h", "B.hum"}));
  // The duplicate holds its own copy: appending to it leaves the first.
  JoinResult copy = got[1];
  copy.rows.Append(std::vector<double>{0, 0});
  EXPECT_EQ(got[0].rows.size(), 2u);
  EXPECT_EQ(got[1].rows.size(), 2u);
}

}  // namespace
}  // namespace sensjoin::join
