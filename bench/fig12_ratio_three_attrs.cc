// Reproduces Fig. 12: influence of the ratio (3 join attributes) /
// (x attributes overall) for x in {3, 4, 5}, at a fixed 5% result
// fraction. Expected shape: savings grow as the ratio shrinks, and even
// the worst case of 100% join attributes still beats the external join
// (thanks to the quadtree representation).
//
// The per-x executions run as ParallelRunner trials on per-trial
// testbeds; rows are collected in trial order so the table is
// byte-identical to a sequential run at any --threads value.

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

struct Row {
  uint64_t ext_packets = 0;
  uint64_t sens_packets = 0;
};

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  auto tb = MustCreateTestbed(PaperDefaultParams(seed));
  std::cout << "Fig. 12 -- ratio 3 join attrs / x attrs overall "
               "(5% fraction), seed "
            << seed << "\n\n";

  // Calibrate the join condition once; it does not depend on the number of
  // additionally queried attributes.
  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryThreeJoinAttrs(3, d); }, 0.0,
      1500.0, 0.05, /*increasing=*/false, /*epoch=*/0, /*iterations=*/22,
      &runner);

  const std::vector<int> kAttrs = {3, 4, 5, 6};
  auto rows = runner.Run(
      static_cast<int>(kAttrs.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const int attrs_overall = kAttrs[ctx.trial];
        auto trial_tb = MustCreateTestbed(PaperDefaultParams(seed));
        const std::string sql =
            RatioQueryThreeJoinAttrs(attrs_overall, cal.param);
        auto q = trial_tb->ParseQuery(sql);
        SENSJOIN_CHECK(q.ok()) << q.status();
        auto ext = trial_tb->MakeExternalJoin().Execute(*q, 0);
        auto sens = trial_tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(ext.ok() && sens.ok());
        return Row{ext->cost.join_packets, sens->cost.join_packets};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"ratio", "attrs overall", "external pkts", "sens pkts",
                      "savings"});
  for (size_t i = 0; i < kAttrs.size(); ++i) {
    const int attrs_overall = kAttrs[i];
    const Row& r = (*rows)[i];
    table.AddRow({Percent(3.0, attrs_overall),
                  Fmt(static_cast<uint64_t>(attrs_overall)),
                  Fmt(r.ext_packets), Fmt(r.sens_packets),
                  Savings(r.sens_packets, r.ext_packets)});
  }
  table.Print(std::cout);
  std::cout << "(achieved result fraction " << Percent(cal.fraction, 1.0)
            << ")\n";
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
