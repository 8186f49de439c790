// Reproduces Fig. 10: overall transmissions of the external join vs
// SENS-Join as a function of the fraction of nodes contributing to the
// result, for the 33% (a) and 60% (b) join-attribute ratios. Expected
// shape: SENS-Join wins below a crossover fraction in the 60-80% region,
// with the largest savings at low fractions and at the smaller ratio.
//
// Every target fraction is an independent (calibrate, execute) unit, so
// the seven targets of each panel run as ParallelRunner trials on
// per-trial testbeds. Calibration is deterministic in the seed, so the
// rows are byte-identical to a sequential run at any --threads value.

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

const std::vector<double> kTargets = {0.02, 0.05, 0.10, 0.20,
                                      0.40, 0.60, 0.80};

struct Row {
  double achieved = 0.0;
  uint64_t ext_packets = 0;
  uint64_t sens_packets = 0;
  uint64_t collection = 0;
  uint64_t filter = 0;
  uint64_t final_pkts = 0;
};

void RunPanel(uint64_t seed, const testbed::ParallelRunner& runner,
              const char* title, bool one_join_attr) {
  std::cout << "\n" << title << "\n";
  auto rows = runner.Run(
      static_cast<int>(kTargets.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const double target = kTargets[ctx.trial];
        auto tb = MustCreateTestbed(PaperDefaultParams(seed));
        Calibration cal;
        if (one_join_attr) {
          cal = CalibrateFraction(
              *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); },
              /*lo=*/0.0, /*hi=*/25.0, target, /*increasing=*/false);
        } else {
          cal = CalibrateFraction(
              *tb, [](double d) { return RatioQueryThreeJoinAttrs(5, d); },
              /*lo=*/0.0, /*hi=*/1500.0, target, /*increasing=*/false);
        }
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok()) << q.status();
        auto ext = tb->MakeExternalJoin().Execute(*q, 0);
        auto sens = tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(ext.ok() && sens.ok());
        return Row{cal.fraction, ext->cost.join_packets,
                   sens->cost.join_packets,
                   sens->cost.phases.collection_packets,
                   sens->cost.phases.filter_packets,
                   sens->cost.phases.final_packets};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"target", "achieved", "external pkts", "sens pkts",
                      "collection", "filter", "final", "savings"});
  for (size_t i = 0; i < kTargets.size(); ++i) {
    const Row& r = (*rows)[i];
    table.AddRow({Percent(kTargets[i], 1.0), Percent(r.achieved, 1.0),
                  Fmt(r.ext_packets), Fmt(r.sens_packets), Fmt(r.collection),
                  Fmt(r.filter), Fmt(r.final_pkts),
                  Savings(r.sens_packets, r.ext_packets)});
  }
  table.Print(std::cout);
}

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Fig. 10 -- overall savings of SENS-Join vs external join\n"
            << "network: 1500 nodes, 1050x1050 m, range 50 m, 48 B packets, "
               "seed "
            << seed << "\n";
  RunPanel(seed, runner, "(a) 33% join attributes (1 join attr of 3 queried)",
           /*one_join_attr=*/true);
  RunPanel(seed, runner, "(b) 60% join attributes (3 join attrs of 5 queried)",
           /*one_join_attr=*/false);
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
