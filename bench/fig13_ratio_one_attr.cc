// Reproduces Fig. 13: influence of the ratio (1 join attribute) /
// (x attributes overall) for x in {1..5}, at a fixed 5% result fraction.
// Expected shape: savings increase with the number of non-join attributes.
//
// The per-x executions are independent, so they run as ParallelRunner
// trials: each trial builds its own Testbed from the bench seed and the
// rows are collected in trial order, keeping the table byte-identical to
// a sequential run at any --threads value.

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
  std::cout << "Fig. 13 -- ratio 1 join attr / x attrs overall "
               "(5% fraction), seed "
            << seed << "\n\n";

  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryOneJoinAttr(1, d); }, 0.0, 25.0,
      0.05, /*increasing=*/false, /*epoch=*/0, /*iterations=*/22, &runner);

  const std::vector<int> kAttrs = {1, 2, 3, 4, 5};
  auto rows = runner.Run(
      static_cast<int>(kAttrs.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const int attrs_overall = kAttrs[ctx.trial];
        auto trial_tb = MustCreateTestbed(PaperDefaultParams(seed));
        const std::string sql = RatioQueryOneJoinAttr(attrs_overall, cal.param);
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
    table.AddRow({Percent(1.0, attrs_overall),
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
