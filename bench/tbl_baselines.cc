// Compares all four join methods on general-purpose workloads: SENS-Join,
// the external join, and the two specialized baselines from the related
// work (Sec. II), a generalized semi-join and a mediated in-network join.
// Expected shape (the paper's justification for comparing against the
// external join only): with arbitrarily placed tuples the specialized
// methods lose to the plain external join at every fraction, while
// SENS-Join wins below its crossover.
//
// Each fraction target is an independent (calibrate, 4x execute) unit,
// run as ParallelRunner trials on per-trial testbeds; rows come back in
// trial order, byte-identical to a sequential run.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sensjoin/join/alt_baselines.h"
#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Sec. II/VI -- all join methods on general-purpose workloads "
               "(60% ratio), seed "
            << seed << "\n\n";
  const std::vector<double> kTargets = {0.02, 0.05, 0.20};
  auto rows = runner.Run(
      static_cast<int>(kTargets.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        auto tb = MustCreateTestbed(PaperDefaultParams(seed));
        const Calibration cal = CalibrateFraction(
            *tb, [](double d) { return RatioQueryThreeJoinAttrs(5, d); }, 0.0,
            1500.0, kTargets[ctx.trial], /*increasing=*/false);
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());

        auto sens = tb->MakeSensJoin().Execute(*q, 0);
        auto ext = tb->MakeExternalJoin().Execute(*q, 0);
        join::SemiJoinExecutor semi(tb->simulator(), tb->tree(), tb->data());
        auto semi_report = semi.Execute(*q, 0);
        join::MediatedJoinExecutor mediated(tb->simulator(), tb->tree(),
                                            tb->data());
        auto med_report = mediated.Execute(*q, 0);
        SENSJOIN_CHECK(sens.ok() && ext.ok() && semi_report.ok() &&
                       med_report.ok());

        const uint64_t counts[4] = {
            sens->cost.join_packets, ext->cost.join_packets,
            semi_report->cost.join_packets, med_report->cost.join_packets};
        const char* names[4] = {"SENS-Join", "external", "semi-join",
                                "mediated"};
        int best = 0;
        for (int i = 1; i < 4; ++i) {
          if (counts[i] < counts[best]) best = i;
        }
        return std::vector<std::string>{
            Percent(cal.fraction, 1.0), Fmt(counts[0]), Fmt(counts[1]),
            Fmt(counts[2]), Fmt(counts[3]), names[best]};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"fraction", "SENS-Join", "external", "semi-join",
                      "mediated", "best"});
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
