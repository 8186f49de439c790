// Reproduces the Sec. VI-A "Packet size" discussion (no figure in the
// paper): with 124-byte packets the external join profits more in overall
// packet counts (it ships much more data per packet), but SENS-Join still
// reduces the load of the nodes close to the root by about an order of
// magnitude.
//
// The two packet sizes run as ParallelRunner trials (each already built
// its own testbed); rows come back in trial order, byte-identical to a
// sequential run.

#include <algorithm>
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
  std::cout << "Sec. VI-A -- influence of the maximum packet size "
               "(33% ratio, 5% fraction), seed "
            << seed << "\n\n";
  const std::vector<int> kPacketBytes = {48, 124};
  auto rows = runner.Run(
      static_cast<int>(kPacketBytes.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const int packet_bytes = kPacketBytes[ctx.trial];
        testbed::TestbedParams params = PaperDefaultParams(seed);
        params.packets.max_packet_bytes = packet_bytes;
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
            Fmt(static_cast<uint64_t>(packet_bytes)) + " B",
            Fmt(ext->cost.join_packets), Fmt(sens->cost.join_packets),
            Savings(sens->cost.join_packets, ext->cost.join_packets),
            Fmt(ext->cost.max_node_packets()),
            Fmt(sens->cost.max_node_packets()),
            Fmt(static_cast<double>(ext->cost.max_node_packets()) /
                    std::max<uint64_t>(1, sens->cost.max_node_packets()),
                1) +
                "x"};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"packet size", "external pkts", "sens pkts",
                      "overall savings", "external max node", "sens max node",
                      "max-node reduction"});
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
