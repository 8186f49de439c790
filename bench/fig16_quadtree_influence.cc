// Reproduces Fig. 16: influence of the quadtree representation at a ~4%
// result fraction. Compares the external join, SENS-Join without the
// quadtree encoding (raw join-attribute tuples, "SENS_No-Quad") and full
// SENS-Join. Expected shape: the collection step alone is well below the
// external join even without the quadtree (only join attributes are sent),
// and the quadtree roughly halves the pre-computation data on top.
//
// The shared calibration runs once up front (its contributor scan chunked
// across the runner); the three variant executions then run as
// ParallelRunner trials on per-trial testbeds, byte-identical to a
// sequential run.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

struct Phases {
  uint64_t collection = 0;
  uint64_t filter = 0;
  uint64_t final_pkts = 0;
  uint64_t total = 0;
};

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  auto tb = MustCreateTestbed(PaperDefaultParams(seed));
  std::cout << "Fig. 16 -- influence of the quadtree representation "
               "(~4% fraction), seed "
            << seed << "\n\n";

  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryThreeJoinAttrs(5, d); }, 0.0,
      1500.0, 0.04, /*increasing=*/false, /*epoch=*/0, /*iterations=*/22,
      &runner);

  // Trial 0: external join; 1: SENS without the quadtree; 2: full SENS.
  auto results = runner.Run(3, seed, [&](const testbed::TrialContext& ctx) {
    auto trial_tb = MustCreateTestbed(PaperDefaultParams(seed));
    auto q = trial_tb->ParseQuery(cal.sql);
    SENSJOIN_CHECK(q.ok());
    if (ctx.trial == 0) {
      auto ext = trial_tb->MakeExternalJoin().Execute(*q, 0);
      SENSJOIN_CHECK(ext.ok());
      return Phases{0, 0, 0, ext->cost.join_packets};
    }
    join::ProtocolConfig config;
    if (ctx.trial == 1) {
      config.representation = join::JoinAttrRepresentation::kRaw;
    }
    auto r = trial_tb->MakeSensJoin(config).Execute(*q, 0);
    SENSJOIN_CHECK(r.ok());
    return Phases{r->cost.phases.collection_packets,
                  r->cost.phases.filter_packets,
                  r->cost.phases.final_packets, r->cost.join_packets};
  });
  SENSJOIN_CHECK(results.ok()) << results.status();
  const Phases& ext = (*results)[0];
  const Phases& raw = (*results)[1];
  const Phases& sens = (*results)[2];

  TablePrinter table({"variant", "collection", "filter", "final", "total",
                      "vs external"});
  table.AddRow({"External Join", "-", "-", "-", Fmt(ext.total), "0.0%"});
  table.AddRow({"SENS_No-Quad (" + Percent(cal.fraction, 1.0) + ")",
                Fmt(raw.collection), Fmt(raw.filter), Fmt(raw.final_pkts),
                Fmt(raw.total), Savings(raw.total, ext.total)});
  table.AddRow({"SENS-Join (" + Percent(cal.fraction, 1.0) + ")",
                Fmt(sens.collection), Fmt(sens.filter), Fmt(sens.final_pkts),
                Fmt(sens.total), Savings(sens.total, ext.total)});
  table.Print(std::cout);

  std::cout << "\ncollection step vs external join: no-quad "
            << Savings(raw.collection, ext.total) << " fewer, quadtree "
            << Savings(sens.collection, ext.total) << " fewer\n";
}

}  // namespace
}  // namespace sensjoin::bench

int main(int argc, char** argv) {
  const int threads = sensjoin::testbed::ParseThreadsFlag(&argc, argv);
  const sensjoin::bench::TraceFlag trace =
      sensjoin::bench::ParseTraceFlag(&argc, argv);
  const uint64_t seed = sensjoin::testbed::ParseSeedArg(argc, argv, 42);
  if (!trace.only) sensjoin::bench::Main(seed, threads);
  if (trace.enabled()) sensjoin::bench::RunTracedExecution(trace, seed);
  return 0;
}
