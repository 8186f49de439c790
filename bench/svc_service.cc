// Continuous multi-query join service benchmark (extension; Sec. VIII
// follow-on work). Two experiments on one deployment:
//
//  1. Collection savings: a single continuous query served by the delta
//     engine vs independent snapshot executions of the same query, per
//     epoch. Steady-state delta collection should cost well under half the
//     snapshot collection.
//
//  2. Multi-query sharing: N queries (sweep 1/4/16/64) that agree on
//     relations/selections/join attributes but differ in join predicates,
//     admitted together with a mid-run admission/cancel churn, executed
//     shared (one phase set per group) vs dedicated (one phase set per
//     query). The shared upward cost should scale ~1/N of dedicated.
//
// Snapshot references and sweep configurations are independent, so they run
// as ParallelRunner trials on per-trial testbeds; each service run itself
// is a sequential epoch loop (the delta engines carry state).

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "sensjoin/testbed/service_harness.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

constexpr int kEpochs = 6;
constexpr int kNumNodes = 250;
const int kSweep[] = {1, 4, 16, 64};

/// Join-predicate spread: every query shares the collection signature
/// (sensors x sensors, join attribute temp, no selections) but keeps its
/// own predicate threshold, so filters differ per query.
std::string QueryOfIndex(int i) {
  return RatioQueryOneJoinAttr(3, 1.0 + 0.05 * (i % 8));
}

join::ProtocolConfig ServiceProtocol() {
  join::ProtocolConfig config;
  // Same knobs for service, dedicated baseline and snapshot reference, so
  // every comparison is apples to apples. The service's delta executor has
  // no Treecut, so the snapshot reference runs without it too.
  config.use_treecut = false;
  return config;
}

struct SnapshotCosts {
  uint64_t collection_packets = 0;
  uint64_t join_packets = 0;
  uint64_t matched_combinations = 0;
};

struct SweepOutcome {
  int queries = 0;
  bool shared = false;
  testbed::ServiceRunResult run;
};

testbed::ServiceRunParams SweepParams(int num_queries, bool shared) {
  testbed::ServiceRunParams params;
  params.epochs = kEpochs;
  params.config.protocol = ServiceProtocol();
  params.config.share_phases = shared;
  for (int i = 0; i < num_queries; ++i) {
    params.initial_queries.push_back(QueryOfIndex(i));
  }
  // Admission/cancel churn: one extra group member joins at epoch 2 and
  // leaves at epoch 4. In shared mode its admission costs no network
  // traffic (the group's collection already serves it); in dedicated mode
  // it forces a bootstrap collection of its own.
  testbed::ChurnEvent join_event;
  join_event.epoch = 2;
  join_event.kind = testbed::ChurnEvent::Kind::kRegister;
  join_event.sql = QueryOfIndex(num_queries);
  params.churn.push_back(join_event);
  testbed::ChurnEvent leave_event;
  leave_event.epoch = 4;
  leave_event.kind = testbed::ChurnEvent::Kind::kCancel;
  leave_event.target =
      static_cast<service::QueryId>(num_queries) + 1;  // the churn admission
  params.churn.push_back(leave_event);
  return params;
}

/// Average join packets per steady-state epoch (bootstrap excluded).
double SteadyPackets(const std::vector<service::ServiceEpochReport>& epochs) {
  uint64_t total = 0;
  size_t count = 0;
  for (const service::ServiceEpochReport& e : epochs) {
    if (e.epoch == 0) continue;
    total += e.cost.join_packets;
    ++count;
  }
  return count > 0 ? static_cast<double>(total) / count : 0.0;
}

double TotalStationCpu(const std::vector<service::ServiceEpochReport>& es) {
  double total = 0.0;
  for (const service::ServiceEpochReport& e : es) total += e.station_cpu_s;
  return total;
}

void WriteServiceJson(const std::string& path, uint64_t seed,
                      double snapshot_collection, double delta_steady,
                      uint64_t bootstrap_collection,
                      const std::vector<SweepOutcome>& outcomes) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"sensjoin-service-v1\",\n"
      << "  \"seed\": " << seed << ",\n  \"num_nodes\": " << kNumNodes
      << ",\n  \"epochs\": " << kEpochs
      << ",\n  \"collection\": {\"snapshot_packets_per_epoch\": "
      << snapshot_collection
      << ", \"delta_steady_packets_per_epoch\": " << delta_steady
      << ", \"bootstrap_packets\": " << bootstrap_collection
      << "},\n  \"sweep\": [\n";
  // Pair shared/dedicated outcomes per sweep point.
  for (size_t s = 0; s < outcomes.size(); s += 2) {
    const SweepOutcome& shared = outcomes[s];
    const SweepOutcome& dedicated = outcomes[s + 1];
    const auto& last = shared.run.epochs.back();
    out << "    {\"queries\": " << shared.queries
        << ", \"sharing_factor\": " << last.sharing_factor
        << ", \"shared_steady_packets_per_epoch\": "
        << SteadyPackets(shared.run.epochs)
        << ", \"dedicated_steady_packets_per_epoch\": "
        << SteadyPackets(dedicated.run.epochs)
        << ", \"shared_station_cpu_s\": " << TotalStationCpu(shared.run.epochs)
        << ", \"dedicated_station_cpu_s\": "
        << TotalStationCpu(dedicated.run.epochs) << "}"
        << (s + 2 < outcomes.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote service sweep baseline to " << path << "\n";
}

void Main(uint64_t seed, int threads, const std::string& json_path) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Extension -- continuous multi-query join service ("
            << kNumNodes << " nodes, " << kEpochs << " epochs), seed " << seed
            << "\n\n";

  // ---- 1. Collection savings: delta service vs snapshot references ------
  auto snapshots =
      runner.Run(kEpochs, seed, [&](const testbed::TrialContext& ctx) {
        auto tb = MustCreateTestbed(PaperDefaultParams(seed, kNumNodes));
        auto q = tb->ParseQuery(QueryOfIndex(0));
        SENSJOIN_CHECK(q.ok());
        auto r = tb->MakeSensJoin(ServiceProtocol())
                     .Execute(*q, static_cast<uint64_t>(ctx.trial));
        SENSJOIN_CHECK(r.ok()) << r.status();
        return SnapshotCosts{r->cost.phases.collection_packets,
                             r->cost.join_packets,
                             r->result.matched_combinations};
      });
  SENSJOIN_CHECK(snapshots.ok()) << snapshots.status();

  auto single_tb = MustCreateTestbed(PaperDefaultParams(seed, kNumNodes));
  testbed::ServiceRunParams single;
  single.epochs = kEpochs;
  single.config.protocol = ServiceProtocol();
  single.initial_queries.push_back(QueryOfIndex(0));
  auto single_run = testbed::RunService(*single_tb, single);
  SENSJOIN_CHECK(single_run.ok()) << single_run.status();

  TablePrinter ctable({"epoch", "delta collection", "snapshot collection",
                       "delta total", "snapshot total", "rows"});
  uint64_t steady_collection = 0;
  uint64_t bootstrap_collection = 0;
  for (const service::ServiceEpochReport& e : single_run->epochs) {
    const SnapshotCosts& snap = (*snapshots)[e.epoch];
    const auto& reports = single_run->query_reports.begin()->second;
    SENSJOIN_CHECK(reports[e.epoch].result.matched_combinations ==
                   snap.matched_combinations)
        << "service and snapshot executions disagree";
    if (e.epoch == 0) {
      bootstrap_collection = e.cost.phases.collection_packets;
    } else {
      steady_collection += e.cost.phases.collection_packets;
    }
    ctable.AddRow({e.epoch == 0 ? "0 (bootstrap)" : Fmt(e.epoch),
                   Fmt(e.cost.phases.collection_packets),
                   Fmt(snap.collection_packets), Fmt(e.cost.join_packets),
                   Fmt(snap.join_packets), Fmt(e.matched_rows)});
  }
  ctable.Print(std::cout);
  double snapshot_collection = 0.0;
  for (const SnapshotCosts& s : *snapshots) {
    snapshot_collection += static_cast<double>(s.collection_packets);
  }
  snapshot_collection /= kEpochs;
  const double delta_steady =
      static_cast<double>(steady_collection) / (kEpochs - 1);
  std::cout << "\nsteady-state collection: delta " << delta_steady
            << " pkts/epoch vs snapshot " << snapshot_collection
            << " pkts/epoch ("
            << (snapshot_collection > 0
                    ? delta_steady / snapshot_collection * 100.0
                    : 0.0)
            << "%)\n\n";

  // ---- 2. Multi-query sharing sweep --------------------------------------
  std::vector<std::pair<int, bool>> configs;
  for (int n : kSweep) {
    configs.push_back({n, true});
    configs.push_back({n, false});
  }
  auto outcomes = runner.Run(
      static_cast<int>(configs.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const auto [num_queries, shared] = configs[ctx.trial];
        // Same base seed everywhere: every configuration runs on an
        // identical deployment, so costs are directly comparable.
        auto tb = MustCreateTestbed(PaperDefaultParams(seed, kNumNodes));
        auto run =
            testbed::RunService(*tb, SweepParams(num_queries, shared));
        SENSJOIN_CHECK(run.ok()) << run.status();
        return SweepOutcome{num_queries, shared, std::move(run).value()};
      });
  SENSJOIN_CHECK(outcomes.ok()) << outcomes.status();

  TablePrinter stable({"queries", "mode", "groups", "sharing", "steady "
                       "pkts/epoch", "station cpu ms", "rows/epoch"});
  for (const SweepOutcome& o : *outcomes) {
    const service::ServiceEpochReport& last = o.run.epochs.back();
    stable.AddRow({Fmt(static_cast<uint64_t>(o.queries)),
                   o.shared ? "shared" : "dedicated",
                   Fmt(static_cast<uint64_t>(last.groups)),
                   Fmt(last.sharing_factor),
                   Fmt(SteadyPackets(o.run.epochs)),
                   Fmt(TotalStationCpu(o.run.epochs) * 1000.0),
                   Fmt(static_cast<uint64_t>(last.matched_rows))});
  }
  stable.Print(std::cout);

  // Shared and dedicated executions must agree on every query's rows.
  for (size_t s = 0; s < outcomes->size(); s += 2) {
    const SweepOutcome& shared = (*outcomes)[s];
    const SweepOutcome& dedicated = (*outcomes)[s + 1];
    for (const auto& [id, reports] : shared.run.query_reports) {
      const auto it = dedicated.run.query_reports.find(id);
      SENSJOIN_CHECK(it != dedicated.run.query_reports.end());
      SENSJOIN_CHECK(reports.size() == it->second.size());
      for (size_t e = 0; e < reports.size(); ++e) {
        SENSJOIN_CHECK(reports[e].result.matched_combinations ==
                       it->second[e].result.matched_combinations)
            << "shared and dedicated executions disagree (query " << id
            << ", epoch " << e << ")";
      }
    }
  }
  std::cout << "\nshared == dedicated result streams verified for every "
               "sweep point\n";

  if (!json_path.empty()) {
    WriteServiceJson(json_path, seed, snapshot_collection, delta_steady,
                     bootstrap_collection, *outcomes);
  }
}

/// Strips a `--service-json=FILE` argument so positional seed parsing is
/// unaffected.
std::string ParseServiceJsonFlag(int* argc, char** argv) {
  const std::string prefix = "--service-json=";
  std::string path;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) {
      path = arg.substr(prefix.size());
      continue;
    }
    argv[w++] = argv[i];
  }
  *argc = w;
  return path;
}

}  // namespace
}  // namespace sensjoin::bench

int main(int argc, char** argv) {
  const int threads = sensjoin::testbed::ParseThreadsFlag(&argc, argv);
  const sensjoin::bench::TraceFlag trace =
      sensjoin::bench::ParseTraceFlag(&argc, argv);
  const std::string json_path =
      sensjoin::bench::ParseServiceJsonFlag(&argc, argv);
  const uint64_t seed = sensjoin::testbed::ParseSeedArg(argc, argv, 42);
  if (!trace.only) sensjoin::bench::Main(seed, threads, json_path);
  if (trace.enabled()) sensjoin::bench::RunTracedExecution(trace, seed);
  return 0;
}
