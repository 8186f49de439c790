// Extension benchmark (Sec. VIII follow-on work): continuous queries with
// delta-based join-attribute collection. Epoch 0 bootstraps (a full
// collection); later epochs ship only cell changes. Expected shape: the
// steady-state collection cost drops well below the snapshot executor's,
// while filter/final costs track the (stable) result size.
//
// The continuous query runs as the only query of a JoinService (the
// service's delta engine carries state from epoch to epoch), so it stays a
// sequential loop on the main thread. The per-epoch snapshot references
// are independent, so they run as ParallelRunner trials on per-trial
// testbeds, byte-identical to a sequential run.

#include <cstdlib>
#include <iostream>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "sensjoin/testbed/service_harness.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

constexpr int kEpochs = 6;

struct Snapshot {
  uint64_t join_packets = 0;
  uint64_t matched_combinations = 0;
};

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  auto tb = MustCreateTestbed(PaperDefaultParams(seed));
  std::cout << "Extension -- continuous queries with delta collection "
               "(33% ratio, 5% fraction, Treecut off), seed "
            << seed << "\n\n";
  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0, 25.0,
      0.05, /*increasing=*/false, /*epoch=*/0, /*iterations=*/22, &runner);
  // The delta executor has no Treecut; the snapshot references run without
  // it too, so both columns measure the same protocol.
  join::ProtocolConfig config;
  config.use_treecut = false;

  auto snapshots =
      runner.Run(kEpochs, seed, [&](const testbed::TrialContext& ctx) {
        auto snap_tb = MustCreateTestbed(PaperDefaultParams(seed));
        auto sq = snap_tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(sq.ok());
        auto r = snap_tb->MakeSensJoin(config).Execute(
            *sq, static_cast<uint64_t>(ctx.trial));
        SENSJOIN_CHECK(r.ok());
        return Snapshot{r->cost.join_packets,
                        r->result.matched_combinations};
      });
  SENSJOIN_CHECK(snapshots.ok()) << snapshots.status();

  service::ServiceConfig service_config;
  service_config.protocol = config;
  service::JoinService continuous = testbed::MakeService(*tb, service_config);
  const StatusOr<service::QueryId> id = continuous.Register(cal.sql);
  SENSJOIN_CHECK(id.ok()) << id.status();

  TablePrinter table({"epoch", "changed nodes", "delta collection", "filter",
                      "final", "total", "snapshot total"});
  for (uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
    const auto epoch_report = continuous.RunEpoch();
    SENSJOIN_CHECK(epoch_report.ok()) << epoch_report.status();
    const join::ExecutionReport& delta =
        (*continuous.registry().Get(*id))->reports.back();
    const Snapshot& snapshot = (*snapshots)[epoch];
    SENSJOIN_CHECK(delta.result.matched_combinations ==
                   snapshot.matched_combinations)
        << "delta and snapshot executions disagree";
    table.AddRow({epoch == 0 ? "0 (bootstrap)" : Fmt(epoch),
                  Fmt(delta.delta_changed_nodes),
                  Fmt(delta.cost.phases.collection_packets),
                  Fmt(delta.cost.phases.filter_packets),
                  Fmt(delta.cost.phases.final_packets),
                  Fmt(delta.cost.join_packets),
                  Fmt(snapshot.join_packets)});
  }
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
