// Reproduces Fig. 15: SENS-Join transmissions broken down by protocol step
// for result fractions of 3%, 5%, 9% and 25% (60% join-attribute ratio, as
// in the paper's cost discussion). Expected shape: the
// Join-Attribute-Collection cost is independent of the fraction (it is the
// lower bound of SENS-Join); Filter-Dissemination and the final step grow
// with the fraction.
//
// The external reference bar and the four fraction targets are five
// independent (calibrate, execute) units, run as ParallelRunner trials on
// per-trial testbeds; rows come back in trial order, keeping the table
// byte-identical to a sequential run.

#include <cstdlib>
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
  std::cout << "Fig. 15 -- costs in the different steps of SENS-Join, seed "
            << seed << "\n\n";

  // Trial 0 is the external-join reference bar; trials 1..4 are the
  // SENS-Join fraction targets.
  const std::vector<double> kTargets = {0.03, 0.05, 0.09, 0.25};
  auto rows = runner.Run(
      static_cast<int>(kTargets.size()) + 1, seed,
      [&](const testbed::TrialContext& ctx) {
        auto tb = MustCreateTestbed(PaperDefaultParams(seed));
        const double target = ctx.trial == 0 ? 0.05 : kTargets[ctx.trial - 1];
        const Calibration cal = CalibrateFraction(
            *tb, [](double d) { return RatioQueryThreeJoinAttrs(5, d); }, 0.0,
            1500.0, target, /*increasing=*/false);
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        if (ctx.trial == 0) {
          auto ext = tb->MakeExternalJoin().Execute(*q, 0);
          SENSJOIN_CHECK(ext.ok());
          return std::vector<std::string>{
              "External Join", Percent(cal.fraction, 1.0), "-", "-", "-",
              Fmt(ext->cost.join_packets)};
        }
        auto sens = tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(sens.ok());
        return std::vector<std::string>{
            "SENS-Join (" + Percent(target, 1.0) + ")",
            Percent(cal.fraction, 1.0),
            Fmt(sens->cost.phases.collection_packets),
            Fmt(sens->cost.phases.filter_packets),
            Fmt(sens->cost.phases.final_packets),
            Fmt(sens->cost.join_packets)};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"variant", "achieved", "collection", "filter", "final",
                      "total"});
  for (std::vector<std::string>& row : *rows) table.AddRow(std::move(row));
  table.Print(std::cout);
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
