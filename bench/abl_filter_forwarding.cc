// Ablation: Selective Filter Forwarding (Sec. IV-C) and its memory budget.
// The paper keeps subtree join-attribute structures up to 500 bytes and
// argues the limit barely matters because the mechanism's benefit is near
// the leaves where structures are tiny.
//
// The calibration runs once up front (contributor scan chunked across the
// runner); the six configurations then run as ParallelRunner trials on
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
  std::cout << "Ablation -- Selective Filter Forwarding "
               "(60% ratio, 5% fraction), seed "
            << seed << "\n\n";
  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryThreeJoinAttrs(5, d); }, 0.0,
      1500.0, 0.05, /*increasing=*/false, /*epoch=*/0, /*iterations=*/22,
      &runner);

  // Trials 0..4 sweep the memory budget; the last trial disables the
  // mechanism entirely.
  const std::vector<int> kMemory = {0, 100, 500, 2000, 100000};
  auto rows = runner.Run(
      static_cast<int>(kMemory.size()) + 1, seed,
      [&](const testbed::TrialContext& ctx) {
        auto trial_tb = MustCreateTestbed(PaperDefaultParams(seed));
        auto q = trial_tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        join::ProtocolConfig config;
        const bool off = ctx.trial == static_cast<int>(kMemory.size());
        if (off) {
          config.use_selective_forwarding = false;
        } else {
          config.filter_memory_bytes = kMemory[ctx.trial];
        }
        auto r = trial_tb->MakeSensJoin(config).Execute(*q, 0);
        SENSJOIN_CHECK(r.ok()) << r.status();
        return std::vector<std::string>{
            off ? "selective forwarding off"
                : "memory limit " + std::to_string(kMemory[ctx.trial]) + " B",
            Fmt(r->cost.phases.filter_packets),
            Fmt(r->cost.phases.final_packets),
            Fmt(r->cost.join_packets)};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"variant", "filter pkts", "final pkts", "total"});
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
