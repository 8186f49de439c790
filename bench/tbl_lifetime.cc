// Network-lifetime projection: the paper argues the per-node metric is the
// critical one because "when the energy of the nodes near the root is
// depleted, the network ceases operation" (Sec. VI "Metric"). This harness
// converts per-node energy per execution into the number of query
// executions a battery budget sustains before the first node dies.
//
// The two methods run as ParallelRunner trials (each already built its
// own testbed); the rows are assembled on the main thread (the SENS-Join
// row is expressed relative to the external lifetime), byte-identical to
// a sequential run.

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

constexpr double kBatteryBudgetJ = 100.0;  // usable radio budget per node

struct Lifetime {
  double max_energy = 0.0;
  uint64_t executions = 0;
};

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Network lifetime projection (" << kBatteryBudgetJ
            << " J radio budget per node, 33% ratio, 5% fraction), seed "
            << seed << "\n\n";
  TablePrinter table(
      {"method", "max node energy/exec (mJ)", "executions until first death",
       "lifetime vs external"});

  // Trial 0: external join; trial 1: SENS-Join.
  auto results = runner.Run(2, seed, [&](const testbed::TrialContext& ctx) {
    const bool sens = ctx.trial == 1;
    auto tb = MustCreateTestbed(PaperDefaultParams(seed));
    const Calibration cal = CalibrateFraction(
        *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0, 25.0,
        0.05, /*increasing=*/false);
    auto q = tb->ParseQuery(cal.sql);
    SENSJOIN_CHECK(q.ok());
    tb->simulator().ResetStats();
    if (sens) {
      SENSJOIN_CHECK(tb->MakeSensJoin().Execute(*q, 0).ok());
    } else {
      SENSJOIN_CHECK(tb->MakeExternalJoin().Execute(*q, 0).ok());
    }
    double max_energy = 0;
    for (int i = 0; i < tb->simulator().num_nodes(); ++i) {
      max_energy =
          std::max(max_energy, tb->simulator().stats(i).energy_mj);
    }
    const uint64_t executions =
        static_cast<uint64_t>(kBatteryBudgetJ * 1000.0 / max_energy);
    return Lifetime{max_energy, executions};
  });
  SENSJOIN_CHECK(results.ok()) << results.status();

  const Lifetime& ext = (*results)[0];
  const Lifetime& sens = (*results)[1];
  table.AddRow({"External Join", Fmt(ext.max_energy, 2), Fmt(ext.executions),
                "1.0x"});
  table.AddRow({"SENS-Join", Fmt(sens.max_energy, 2), Fmt(sens.executions),
                Fmt(static_cast<double>(sens.executions) /
                        std::max<uint64_t>(1, ext.executions),
                    1) +
                    "x"});
  table.Print(std::cout);
  std::cout << "\n(\"This prolongs the lifetime of the network "
               "significantly\", Sec. VIII)\n";
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
