// Reproduces Fig. 14: influence of the network size (1000-2500 nodes,
// constant density), 33% join-attribute ratio, 5% result fraction.
// Expected shape: relative savings roughly constant, growing slightly
// (superlinearly) with the size of the network.
//
// Each network size already built its own testbed, so the sweep maps
// directly onto ParallelRunner trials; rows are collected in trial order,
// keeping the table byte-identical to a sequential run.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Fig. 14 -- influence of the network size "
               "(constant density, 5% fraction, 33% ratio), seed "
            << seed << "\n\n";
  const std::vector<int> kSizes = {1000, 1500, 2000, 2500};
  auto rows = runner.Run(
      static_cast<int>(kSizes.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const int n = kSizes[ctx.trial];
        auto tb = MustCreateTestbed(PaperDefaultParams(seed, n));
        const Calibration cal = CalibrateFraction(
            *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0,
            25.0, 0.05, /*increasing=*/false);
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        auto ext = tb->MakeExternalJoin().Execute(*q, 0);
        auto sens = tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(ext.ok() && sens.ok());
        return std::vector<std::string>{
            Fmt(static_cast<uint64_t>(n)),
            Fmt(tb->params().placement.area_width_m, 0),
            Fmt(static_cast<uint64_t>(tb->tree().max_depth())),
            Fmt(ext->cost.join_packets), Fmt(sens->cost.join_packets),
            Savings(sens->cost.join_packets, ext->cost.join_packets)};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"nodes", "area (m)", "tree depth", "external pkts",
                      "sens pkts", "savings"});
  for (std::vector<std::string>& row : *rows) table.AddRow(std::move(row));
  table.Print(std::cout);
}

// --- The --scale sweep ----------------------------------------------------
//
// Not a paper figure: a single-topology scaling run for the simulator and
// the compact memory layout. One trial per size with a FIXED query (no
// calibration — its binary search would dominate the wall-clock), sizes
// ascending so the monotone ru_maxrss reading after each run is that run's
// peak.

struct ScaleRow {
  int nodes = 0;
  double build_s = 0.0;
  double exec_s = 0.0;
  uint64_t events = 0;
  double events_per_sec = 0.0;
  long maxrss_kb = 0;
};

long MaxRssKb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

ScaleRow RunScaleTrial(uint64_t seed, int n) {
  const testbed::TestbedParams params = PaperDefaultParams(seed, n);
  const auto t0 = std::chrono::steady_clock::now();
  auto tb = MustCreateTestbed(params);
  const auto t1 = std::chrono::steady_clock::now();

  // The paper's quantizer pins temp to [0, 50] (Sec. V-B); past ~20k nodes
  // the field's gradient span (0.004/m over an area side that grows with
  // sqrt(n)) escapes that range, readings clamp into the +-infinity
  // boundary cells, and the conservative filter join must keep every cell
  // — the base station then joins all n candidate tuples, an O(n^2) CPU
  // cost unrelated to the machinery under test. Widen the quantizer to
  // cover the field at any size (gradient along a random direction over
  // the diagonal, plus every bump stacked, plus noise slack), then make
  // the join delta the full quantizer width: no in-range cell pair can
  // satisfy `A.temp - B.temp > delta`, the filter is provably empty, and
  // phase 3 ships nothing. The sweep measures the protocol simulation —
  // collection, treecut, filter dissemination — not join-result
  // materialization.
  const double span = 0.004 * std::hypot(params.placement.area_width_m,
                                         params.placement.area_height_m) +
                      45.0;
  tb->mutable_quantization().by_attr["temp"] = {20.0 - span, 20.0 + span,
                                                0.1};
  const double delta = 2.0 * span;
  auto q = tb->ParseQuery(RatioQueryOneJoinAttr(3, delta));
  SENSJOIN_CHECK(q.ok()) << q.status();
  const uint64_t events_before = tb->simulator().events().total_fired();
  const auto t2 = std::chrono::steady_clock::now();
  auto report = tb->MakeSensJoin().Execute(*q, 0);
  const auto t3 = std::chrono::steady_clock::now();
  SENSJOIN_CHECK(report.ok()) << report.status();

  ScaleRow row;
  row.nodes = n;
  row.build_s = std::chrono::duration<double>(t1 - t0).count();
  row.exec_s = std::chrono::duration<double>(t3 - t2).count();
  row.events = tb->simulator().events().total_fired() - events_before;
  row.events_per_sec =
      row.exec_s > 0 ? static_cast<double>(row.events) / row.exec_s : 0.0;
  row.maxrss_kb = MaxRssKb();
  return row;
}

void ScaleMain(uint64_t seed, const std::vector<int>& sizes,
               const std::string& json_path) {
  std::cout << "Scale sweep -- one topology per size, seed " << seed << "\n\n";
  TablePrinter table({"nodes", "build (s)", "exec (s)", "events", "events/s",
                      "maxrss (MB)"});
  std::vector<ScaleRow> rows;
  for (int n : sizes) {
    const ScaleRow row = RunScaleTrial(seed, n);
    table.AddRow({Fmt(static_cast<uint64_t>(row.nodes)), Fmt(row.build_s),
                  Fmt(row.exec_s), Fmt(row.events), Fmt(row.events_per_sec, 0),
                  Fmt(static_cast<double>(row.maxrss_kb) / 1024.0, 1)});
    rows.push_back(row);
  }
  table.Print(std::cout);

  if (json_path.empty()) return;
  std::ofstream out(json_path);
  SENSJOIN_CHECK(out.good()) << "cannot write " << json_path;
  out << "{\n  \"seed\": " << seed << ",\n  \"sizes\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& row = rows[i];
    out << "    {\"nodes\": " << row.nodes << ", \"build_s\": " << row.build_s
        << ", \"exec_s\": " << row.exec_s << ", \"events\": " << row.events
        << ", \"events_per_sec\": " << row.events_per_sec
        << ", \"maxrss_kb\": " << row.maxrss_kb << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote " << json_path << "\n";
}

/// Parses --scale / --scale-sizes=a,b,c / --scale-json=PATH, compacting
/// argv like the other flag parsers. Returns true when --scale was given.
bool ParseScaleFlags(int* argc, char** argv, std::vector<int>* sizes,
                     std::string* json_path) {
  bool enabled = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--scale") == 0) {
      enabled = true;
      continue;
    }
    if (std::strncmp(arg, "--scale-sizes=", 14) == 0) {
      sizes->clear();
      const char* p = arg + 14;
      while (*p != '\0') {
        char* end = nullptr;
        const long n = std::strtol(p, &end, 10);
        SENSJOIN_CHECK(end != p && n > 0) << "bad --scale-sizes: " << arg;
        sizes->push_back(static_cast<int>(n));
        p = *end == ',' ? end + 1 : end;
      }
      continue;
    }
    if (std::strncmp(arg, "--scale-json=", 13) == 0) {
      *json_path = arg + 13;
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return enabled;
}

}  // namespace
}  // namespace sensjoin::bench

int main(int argc, char** argv) {
  const int threads = sensjoin::testbed::ParseThreadsFlag(&argc, argv);
  std::vector<int> scale_sizes = {5000, 15000, 50000, 150000};
  std::string scale_json;
  const bool scale =
      sensjoin::bench::ParseScaleFlags(&argc, argv, &scale_sizes, &scale_json);
  const sensjoin::bench::TraceFlag trace =
      sensjoin::bench::ParseTraceFlag(&argc, argv);
  const uint64_t seed = sensjoin::testbed::ParseSeedArg(argc, argv, 42);
  if (scale) {
    sensjoin::bench::ScaleMain(seed, scale_sizes, scale_json);
    return 0;
  }
  if (!trace.only) sensjoin::bench::Main(seed, threads);
  if (trace.enabled()) sensjoin::bench::RunTracedExecution(trace, seed);
  return 0;
}
