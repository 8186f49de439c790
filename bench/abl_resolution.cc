// Ablation: quantization resolution (Sec. V-B). The paper reports that
// SENS-Join is insensitive to the pre-computation resolution as long as it
// is not too coarse: finer steps cost more bits per point, coarser steps
// create false positives (complete tuples shipped unnecessarily).
//
// Each resolution already built its own testbed, so the sweep maps
// directly onto ParallelRunner trials; rows come back in trial order,
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
  std::cout << "Ablation -- temperature quantization resolution "
               "(33% ratio, 5% fraction), seed "
            << seed << "\n\n";
  const std::vector<double> kResolutions = {0.02, 0.05, 0.1, 0.5,
                                            1.0,  2.0,  5.0};
  auto rows = runner.Run(
      static_cast<int>(kResolutions.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const double resolution = kResolutions[ctx.trial];
        auto tb = MustCreateTestbed(PaperDefaultParams(seed));
        tb->mutable_quantization().by_attr["temp"].resolution = resolution;
        const Calibration cal = CalibrateFraction(
            *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0,
            25.0, 0.05, /*increasing=*/false);
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        auto r = tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(r.ok()) << r.status();
        return std::vector<std::string>{
            Fmt(resolution, 2), Fmt(r->collected_points),
            Fmt(r->filter_points), Fmt(r->final_tuples_shipped),
            Fmt(static_cast<uint64_t>(r->result.contributing_nodes.size())),
            Fmt(r->cost.phases.collection_packets),
            Fmt(r->cost.join_packets)};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"resolution (degC)", "collected pts", "filter pts",
                      "final tuples", "contributing", "collection", "total"});
  for (std::vector<std::string>& row : *rows) table.AddRow(std::move(row));
  table.Print(std::cout);
  std::cout << "\n(final tuples above the contributing count are false "
               "positives caused by coarse cells)\n";
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
