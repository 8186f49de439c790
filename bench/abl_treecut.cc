// Ablation: the Treecut threshold Dmax (Sec. IV-B / IV-E). The paper fixes
// Dmax = 30 bytes and argues that below ~30 bytes the possible data
// reduction cannot pay for the extra final-phase packet. This sweep shows
// the trade-off: Dmax = 0 disables Treecut; values near the packet size
// push complete tuples too far up the tree.
//
// The calibration runs once up front (contributor scan chunked across the
// runner); the seven configurations then run as ParallelRunner trials on
// per-trial testbeds, byte-identical to a sequential run.

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
  auto tb = MustCreateTestbed(PaperDefaultParams(seed));
  std::cout << "Ablation -- Treecut threshold Dmax "
               "(33% ratio, 5% fraction), seed "
            << seed << "\n\n";
  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0, 25.0,
      0.05, /*increasing=*/false, /*epoch=*/0, /*iterations=*/22, &runner);

  // Trials 0..5 sweep Dmax; the last trial turns Treecut off entirely
  // (distinct from Dmax = 0 only in bookkeeping).
  const std::vector<int> kDmax = {0, 10, 20, 30, 40, 47};
  auto rows = runner.Run(
      static_cast<int>(kDmax.size()) + 1, seed,
      [&](const testbed::TrialContext& ctx) {
        auto trial_tb = MustCreateTestbed(PaperDefaultParams(seed));
        auto q = trial_tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        join::ProtocolConfig config;
        const bool off = ctx.trial == static_cast<int>(kDmax.size());
        if (off) {
          config.use_treecut = false;
        } else {
          config.dmax_bytes = kDmax[ctx.trial];
        }
        auto r = trial_tb->MakeSensJoin(config).Execute(*q, 0);
        SENSJOIN_CHECK(r.ok()) << r.status();
        return std::vector<std::string>{
            off ? "off" : Fmt(static_cast<uint64_t>(kDmax[ctx.trial])),
            Fmt(r->treecut_exited_nodes),
            Fmt(r->cost.phases.collection_packets),
            Fmt(r->cost.phases.filter_packets),
            Fmt(r->cost.phases.final_packets),
            Fmt(r->cost.join_packets)};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"Dmax (B)", "exited nodes", "collection", "filter",
                      "final", "total"});
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
