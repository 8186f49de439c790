// Reproduces the Sec. VI-B compression comparison: the cost of the
// Join-Attribute-Collection step for 1500 nodes and three join attributes
// (temperature + the uncorrelated X/Y coordinates) under four
// representations. Paper numbers: raw 5619 packets ~ bzip2 5666 >
// zlib 4571 > quadtree 2762. Expected shape: general-purpose compressors
// gain little to nothing at per-hop granularity (bzip2's block overhead can
// even add volume); the quadtree roughly halves the cost.
//
// The four representations run as ParallelRunner trials on per-trial
// testbeds; rows are assembled in trial order on the main thread (the
// "vs raw" column needs the raw trial's count), byte-identical to a
// sequential run.

#include <cstdlib>
#include <iostream>

#include "sensjoin/sensjoin.h"
#include "util/calibration.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

struct Cost {
  uint64_t packets = 0;
  uint64_t bytes = 0;
};

void Main(uint64_t seed, int threads) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Sec. VI-B -- compact representation vs general-purpose "
               "compression (collection step only), seed "
            << seed << "\n\n";

  // Join attributes: temp, x, y (the paper's hard case for the quadtree).
  const std::string sql = RatioQueryThreeJoinAttrs(3, 900.0);

  struct Variant {
    join::JoinAttrRepresentation repr;
    const char* label;
  };
  const Variant variants[] = {
      {join::JoinAttrRepresentation::kRaw, "raw join-attribute tuples"},
      {join::JoinAttrRepresentation::kBzip2Like, "bzip2-like (BWT+MTF+Huff)"},
      {join::JoinAttrRepresentation::kZlibLike, "zlib-like (LZ77+Huffman)"},
      {join::JoinAttrRepresentation::kQuadtree, "quadtree (SENS-Join)"},
  };
  auto costs = runner.Run(4, seed, [&](const testbed::TrialContext& ctx) {
    auto tb = MustCreateTestbed(PaperDefaultParams(seed));
    auto q = tb->ParseQuery(sql);
    SENSJOIN_CHECK(q.ok());
    join::ProtocolConfig config;
    config.representation = variants[ctx.trial].repr;
    // Treecut off isolates the representation's effect on the collection
    // step, matching the paper's modified-collection experiment.
    config.use_treecut = false;
    auto r = tb->MakeSensJoin(config).Execute(*q, 0);
    SENSJOIN_CHECK(r.ok()) << r.status();
    return Cost{r->cost.phases.collection_packets, r->cost.bytes_sent};
  });
  SENSJOIN_CHECK(costs.ok()) << costs.status();

  TablePrinter table({"representation", "collection pkts", "collection B",
                      "vs raw"});
  const uint64_t raw_packets = (*costs)[0].packets;
  for (int i = 0; i < 4; ++i) {
    const Cost& c = (*costs)[i];
    table.AddRow({variants[i].label, Fmt(c.packets), Fmt(c.bytes),
                  i == 0 ? "0.0%" : Savings(c.packets, raw_packets)});
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
