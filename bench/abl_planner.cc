// Validates the analytic planner (join/planner.h) against simulation:
// predicted vs measured packet counts for both methods across result
// fractions, and whether the planner's choice matches the simulated winner.
//
// Each fraction target is an independent (calibrate, execute, estimate)
// unit, run as ParallelRunner trials on per-trial testbeds; rows and the
// accuracy tally are assembled in trial order, byte-identical to a
// sequential run.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/planner.h"
#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

struct Row {
  std::vector<std::string> cells;
  bool correct = false;
};

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Planner validation (33% ratio), seed " << seed << "\n\n";
  const std::vector<double> kTargets = {0.02, 0.05, 0.10, 0.20,
                                        0.40, 0.60, 0.80};
  auto rows = runner.Run(
      static_cast<int>(kTargets.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        auto tb = MustCreateTestbed(PaperDefaultParams(seed));
        const Calibration cal = CalibrateFraction(
            *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0,
            25.0, kTargets[ctx.trial], /*increasing=*/false);
        auto q = tb->ParseQuery(cal.sql);
        SENSJOIN_CHECK(q.ok());
        auto ext = tb->MakeExternalJoin().Execute(*q, 0);
        auto sens = tb->MakeSensJoin().Execute(*q, 0);
        SENSJOIN_CHECK(ext.ok() && sens.ok());

        std::vector<char> participates(tb->simulator().num_nodes(), 1);
        participates[tb->tree().root()] = 0;
        join::PlannerParams params;
        params.full_tuple_bytes = q->QueriedTupleBytes(0);
        params.join_attr_raw_bytes = q->JoinAttrTupleBytes(0);
        params.expected_fraction = cal.fraction;
        const join::PlanEstimate estimate =
            join::EstimatePlan(tb->tree(), participates, params);

        const join::JoinMethod simulated_winner =
            sens->cost.join_packets <= ext->cost.join_packets
                ? join::JoinMethod::kSensJoin
                : join::JoinMethod::kExternalJoin;
        Row row;
        row.correct = estimate.Choice() == simulated_winner;
        row.cells = {Percent(cal.fraction, 1.0), Fmt(ext->cost.join_packets),
                     Fmt(estimate.external, 0), Fmt(sens->cost.join_packets),
                     Fmt(estimate.sens(), 0),
                     join::JoinMethodName(estimate.Choice()),
                     join::JoinMethodName(simulated_winner)};
        return row;
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"fraction", "ext sim", "ext est", "sens sim",
                      "sens est", "planner picks", "simulated winner"});
  int correct = 0;
  int total = 0;
  for (Row& row : *rows) {
    ++total;
    if (row.correct) ++correct;
    table.AddRow(std::move(row.cells));
  }
  table.Print(std::cout);
  std::cout << "decision accuracy: " << correct << "/" << total << "\n";
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
