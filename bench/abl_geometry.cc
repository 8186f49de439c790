// Ablation: base-station placement. The paper leaves the base-station
// position unstated; its absolute numbers imply a deep tree. This sweep
// shows how the tree depth (corner vs center placement) shifts both
// methods' costs and the resulting savings — useful when comparing the
// reproduction's absolute numbers to the paper's.
//
// The two placements run as ParallelRunner trials (each already built its
// own testbed); rows come back in trial order, byte-identical to a
// sequential run.

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
  std::cout << "Ablation -- base-station placement "
               "(33% ratio, 5% fraction), seed "
            << seed << "\n\n";
  const std::vector<net::BaseStationPlacement> kPlacements = {
      net::BaseStationPlacement::kCorner, net::BaseStationPlacement::kCenter};
  auto rows = runner.Run(
      static_cast<int>(kPlacements.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const net::BaseStationPlacement placement = kPlacements[ctx.trial];
        testbed::TestbedParams params = PaperDefaultParams(seed);
        params.placement.base_station = placement;
        auto tb = MustCreateTestbed(params);
        const Calibration cal = CalibrateFraction(
            *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0,
            25.0, 0.05, /*increasing=*/false);
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        auto ext = tb->MakeExternalJoin().Execute(*q, 0);
        auto sens = tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(ext.ok() && sens.ok());
        return std::vector<std::string>{
            placement == net::BaseStationPlacement::kCorner ? "corner"
                                                            : "center",
            Fmt(static_cast<uint64_t>(tb->tree().max_depth())),
            Fmt(ext->cost.join_packets), Fmt(sens->cost.join_packets),
            Savings(sens->cost.join_packets, ext->cost.join_packets),
            Fmt(ext->cost.max_node_packets()),
            Fmt(sens->cost.max_node_packets())};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"placement", "tree depth", "external pkts",
                      "sens pkts", "savings", "ext max node",
                      "sens max node"});
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
