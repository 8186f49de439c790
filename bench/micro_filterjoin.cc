// Microbenchmark for the base station's two joins: the pre-computation join
// (ComputeJoinFilter), a conservative interval-arithmetic join over quantized
// join-attribute tuples, and the exact join over full tuples
// (ComputeExactJoin, and ComputeExactJoins for a sharing group's members).
// The base station is powered, but both must still finish well within a
// query's response time.
//
// The `evaluated` counters are deterministic: they count predicate
// evaluations, which the probe windows keep far below the cross product. So
// are the output counts (`filter`, `rows`).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/result.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

data::Schema BenchSchema() {
  return data::Schema(
      {{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}, {"pres", 2}});
}

query::AnalyzedQuery BenchQuery() {
  auto q = query::AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(A.x, A.y, B.x, B.y) > 700 ONCE",
      BenchSchema());
  SENSJOIN_CHECK(q.ok());
  return std::move(q).value();
}

JoinAttrCodec BenchCodec() {
  DimensionSpec x{"x", 0, 0, 1050, 1.0};
  DimensionSpec y{"y", 1, 0, 1050, 1.0};
  DimensionSpec temp{"temp", 2, 0, 50, 0.1};
  auto quant = Quantizer::Create({x, y, temp});
  SENSJOIN_CHECK(quant.ok());
  return JoinAttrCodec(std::move(quant).value(), 1);
}

PointSet CollectedSet(const JoinAttrCodec& codec, int n) {
  Rng rng(n);
  PointSet set = codec.EmptySet();
  for (int i = 0; i < n; ++i) {
    set.Insert(codec.EncodeTuple({rng.UniformDouble(0, 1050),
                                  rng.UniformDouble(0, 1050),
                                  rng.UniformDouble(18, 26)},
                                 1));
  }
  return set;
}

void RunFilterJoin(benchmark::State& state, const query::AnalyzedQuery& q) {
  const JoinAttrCodec codec = BenchCodec();
  const PointSet collected = CollectedSet(codec, state.range(0));
  size_t filter_size = 0;
  size_t evaluated = 0;
  for (auto _ : state) {
    const FilterJoinResult r = ComputeJoinFilter(q, codec, collected);
    filter_size = r.filter.size();
    evaluated = r.combinations_evaluated;
    benchmark::DoNotOptimize(filter_size);
  }
  state.counters["points"] = static_cast<double>(collected.size());
  state.counters["filter"] = static_cast<double>(filter_size);
  state.counters["evaluated"] = static_cast<double>(evaluated);
  state.SetItemsProcessed(state.iterations() * collected.size() *
                          collected.size());
}

void BM_ComputeJoinFilter(benchmark::State& state) {
  RunFilterJoin(state, BenchQuery());
}
BENCHMARK(BM_ComputeJoinFilter)->Arg(100)->Arg(400)->Arg(1500)
    ->Unit(benchmark::kMillisecond);

// Three-relation chain: a temp band on A-B, a proximity join on B-C.
query::AnalyzedQuery ThreeWayQuery() {
  auto q = query::AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum, C.hum FROM sensors A, sensors B, sensors C "
      "WHERE |A.temp - B.temp| < 0.3 "
      "AND distance(B.x, B.y, C.x, C.y) < 200 ONCE",
      BenchSchema());
  SENSJOIN_CHECK(q.ok());
  return std::move(q).value();
}

void BM_ComputeJoinFilter3Way(benchmark::State& state) {
  RunFilterJoin(state, ThreeWayQuery());
}
BENCHMARK(BM_ComputeJoinFilter3Way)->Arg(150)->Arg(600)
    ->Unit(benchmark::kMillisecond);

// `n` random tuples of `sensors`, node i holding tuple i.
std::vector<data::Tuple> RandomTuples(int n) {
  Rng rng(n);
  std::vector<data::Tuple> tuples(n);
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].node = static_cast<sim::NodeId>(i);
    tuples[i].values = {rng.UniformDouble(0, 1050), rng.UniformDouble(0, 1050),
                        rng.UniformDouble(18, 26), rng.UniformDouble(20, 80),
                        rng.UniformDouble(990, 1030)};
  }
  return tuples;
}

// Runs the exact joins of `sqls` (self-joins of `sensors`, one sharing
// group) over state.range(0) random tuples in one ComputeExactJoins call;
// the counters sum over the members.
void RunExactJoins(benchmark::State& state,
                   const std::vector<std::string>& sqls) {
  std::vector<query::AnalyzedQuery> queries;
  for (const std::string& sql : sqls) {
    auto q = query::AnalyzedQuery::FromString(sql, BenchSchema());
    SENSJOIN_CHECK(q.ok());
    queries.push_back(std::move(q).value());
  }
  std::vector<const query::AnalyzedQuery*> members;
  for (const query::AnalyzedQuery& q : queries) members.push_back(&q);
  const std::vector<data::Tuple> tuples = RandomTuples(state.range(0));
  std::vector<const data::Tuple*> candidates;
  for (const data::Tuple& t : tuples) candidates.push_back(&t);
  size_t rows = 0;
  size_t evaluated = 0;
  for (auto _ : state) {
    const std::vector<JoinResult> results =
        ComputeExactJoins(members, {candidates, candidates});
    rows = 0;
    evaluated = 0;
    for (const JoinResult& r : results) {
      rows += r.rows.size();
      evaluated += r.combinations_evaluated;
    }
    benchmark::DoNotOptimize(rows);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["evaluated"] = static_cast<double>(evaluated);
}

void RunExactJoin(benchmark::State& state, const std::string& sql) {
  RunExactJoins(state, {sql});
}

// The exact join over full tuples: a half-band join (A warmer than B by
// more than 7.5 degrees) on temperatures uniform in [18, 26], about 0.2 % of
// the pairs.
void BM_ComputeExactJoin(benchmark::State& state) {
  RunExactJoin(state,
               "SELECT A.hum, B.hum FROM sensors A, sensors B "
               "WHERE A.temp - B.temp > 7.5 ONCE");
}
BENCHMARK(BM_ComputeExactJoin)->Arg(1500)->Unit(benchmark::kMillisecond);

// A rows-heavy exact join shaped like one query of a shared service group:
// six SELECT columns and a half-band of 1.8 degrees, which puts about 30 %
// of the pairs in the result. Materializing the rows dominates.
void BM_ComputeExactJoinRows(benchmark::State& state) {
  RunExactJoin(state,
               "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres "
               "FROM sensors A, sensors B WHERE A.temp - B.temp > 1.8 ONCE");
}
BENCHMARK(BM_ComputeExactJoinRows)->Arg(250)->Unit(benchmark::kMillisecond);

// The 16 members of a sharing group, each BM_ComputeExactJoinRows's query
// with its own half-band threshold.
std::vector<std::string> GroupQueries(double (*threshold)(int)) {
  std::vector<std::string> sqls;
  for (int i = 0; i < 16; ++i) {
    sqls.push_back(
        "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres "
        "FROM sensors A, sensors B WHERE A.temp - B.temp > " +
        std::to_string(threshold(i)) + " ONCE");
  }
  return sqls;
}

// svc_service's 16-query group: thresholds 1.0 + 0.05 (i % 8), so each of
// eight distinct members is admitted twice and computed once.
void BM_ComputeExactJoinGroup(benchmark::State& state) {
  RunExactJoins(state,
                GroupQueries([](int i) { return 1.0 + 0.05 * (i % 8); }));
}
BENCHMARK(BM_ComputeExactJoinGroup)->Arg(250)->Unit(benchmark::kMillisecond);

// Sixteen distinct members over the same threshold range: none is computed
// twice, so the call costs sixteen solo joins.
void BM_ComputeExactJoinGroupDistinct(benchmark::State& state) {
  RunExactJoins(state, GroupQueries([](int i) { return 1.0 + 0.025 * i; }));
}
BENCHMARK(BM_ComputeExactJoinGroupDistinct)->Arg(250)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sensjoin::join

// main() comes from benchmark::benchmark_main.
