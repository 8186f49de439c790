// Reproduces Fig. 11: per-node transmissions vs the number of descendants
// in the routing tree, at the default 5% result fraction. Expected shape:
// the most loaded (descendant-rich) nodes are unburdened by more than an
// order of magnitude at the 33% ratio and by >75% at the 60% ratio.
//
// The two panels are independent, so each runs as a ParallelRunner trial
// on its own testbed, rendering into a string that the main thread prints
// in panel order — byte-identical to a sequential run.

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

struct Bucket {
  int lo;
  int hi;  // inclusive; -1 = unbounded
};

void RunPanel(testbed::Testbed& tb, const char* title, bool one_join_attr,
              std::ostream& os) {
  Calibration cal;
  if (one_join_attr) {
    cal = CalibrateFraction(
        tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0, 25.0,
        0.05, /*increasing=*/false);
  } else {
    cal = CalibrateFraction(
        tb, [](double d) { return RatioQueryThreeJoinAttrs(5, d); }, 0.0,
        1500.0, 0.05, /*increasing=*/false);
  }
  auto q = tb.ParseQuery(cal.sql);
  SENSJOIN_CHECK(q.ok());
  auto ext = tb.MakeExternalJoin().Execute(*q, 0);
  auto sens = tb.MakeSensJoin().Execute(*q, 0);
  SENSJOIN_CHECK(ext.ok() && sens.ok());

  os << "\n" << title << "  (achieved fraction "
     << Percent(cal.fraction, 1.0) << ")\n";
  TablePrinter table({"descendants", "nodes", "external avg", "sens avg",
                      "external max", "sens max", "reduction"});
  const std::vector<Bucket> buckets = {{0, 0},    {1, 3},    {4, 15},
                                       {16, 63},  {64, 255}, {256, -1}};
  const net::RoutingTree& tree = tb.tree();
  for (const Bucket& b : buckets) {
    uint64_t ext_sum = 0, sens_sum = 0, ext_max = 0, sens_max = 0;
    int count = 0;
    for (int i = 0; i < tb.simulator().num_nodes(); ++i) {
      if (i == tree.root() || !tree.InTree(i)) continue;
      const int descendants = tree.subtree_size(i) - 1;
      if (descendants < b.lo || (b.hi >= 0 && descendants > b.hi)) continue;
      ++count;
      ext_sum += ext->cost.per_node_packets[i];
      sens_sum += sens->cost.per_node_packets[i];
      ext_max = std::max(ext_max, ext->cost.per_node_packets[i]);
      sens_max = std::max(sens_max, sens->cost.per_node_packets[i]);
    }
    if (count == 0) continue;
    std::string label = std::to_string(b.lo) +
                        (b.hi < 0 ? "+"
                         : b.hi == b.lo ? ""
                                        : "-" + std::to_string(b.hi));
    table.AddRow({label, Fmt(static_cast<uint64_t>(count)),
                  Fmt(static_cast<double>(ext_sum) / count, 1),
                  Fmt(static_cast<double>(sens_sum) / count, 1), Fmt(ext_max),
                  Fmt(sens_max), Savings(sens_max, ext_max)});
  }
  table.Print(os);
  os << "most loaded node overall: external "
     << ext->cost.max_node_packets() << " pkts, SENS-Join "
     << sens->cost.max_node_packets() << " pkts ("
     << Fmt(static_cast<double>(ext->cost.max_node_packets()) /
                std::max<uint64_t>(1, sens->cost.max_node_packets()),
            1)
     << "x reduction)\n";
}

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Fig. 11 -- per-node savings of SENS-Join (5% fraction), seed "
            << seed << "\n";
  const struct {
    const char* title;
    bool one_join_attr;
  } panels[] = {
      {"(a) 33% join attributes", true},
      {"(b) 60% join attributes", false},
  };
  auto rendered = runner.Run(2, seed, [&](const testbed::TrialContext& ctx) {
    auto tb = MustCreateTestbed(PaperDefaultParams(seed));
    std::ostringstream os;
    RunPanel(*tb, panels[ctx.trial].title, panels[ctx.trial].one_join_attr,
             os);
    return os.str();
  });
  SENSJOIN_CHECK(rendered.ok()) << rendered.status();
  for (const std::string& panel : *rendered) std::cout << panel;
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
