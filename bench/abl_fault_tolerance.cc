// Ablation: fault tolerance under lossy links and node crashes. The paper
// handles failures by re-executing the whole query after CTP repair
// (Sec. IV-F); this harness quantifies what the fault-injection layer adds
// on top: link-layer ARQ (bounded retransmissions, charged in the energy
// model) and phase-level recovery (re-requesting only the missing subtree
// contribution). Sweeps ambient loss rate x permanent node crashes and
// reports cost, itemized ARQ overhead and result completeness against the
// fault-free ground truth, for SENS-Join and the external join. A fourth
// sweep certifies the exactly-once delivery semantics: duplication x
// reorder jitter plus a cross-attempt replay cell, where completeness must
// hold at 100% while the sequence guard absorbs the duplicate, reordered
// and stale traffic (itemized per cell).
//
// Every sweep cell builds its own faulty testbeds (fault RNG seeded from
// the cell parameters), so the cells run as ParallelRunner trials; rows
// come back in trial order, byte-identical to a sequential run.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sensjoin/sensjoin.h"
#include "util/table.h"
#include "util/tracing.h"
#include "util/workloads.h"

namespace sensjoin::bench {
namespace {

const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 450 ONCE";

/// Deterministic crash victims: the first `count` nodes that contribute
/// rows to the fault-free result (no recovery — this ablation measures
/// degradation, not healing), so every crash visibly removes rows from the
/// join result.
sim::FaultPlan MakePlan(testbed::Testbed& tb,
                        const std::vector<sim::NodeId>& contributors,
                        double loss_rate, int crashes, uint64_t seed) {
  sim::FaultPlan plan;
  plan.rates.loss = loss_rate;
  plan.arq.enabled = true;
  plan.seed = seed * 1000 + crashes;
  const sim::SimTime when = tb.simulator().now() + 0.05;
  int picked = 0;
  for (sim::NodeId u : contributors) {
    if (picked >= crashes) break;
    plan.crash_events.push_back({u, when, /*recover=*/false});
    ++picked;
  }
  return plan;
}

/// Lets the scheduled crash events fire before the query runs, so the
/// victims are down for the whole execution. (The protocol drivers drain
/// the event queue only at phase boundaries, so a crash scheduled mid-run
/// would take effect after the victim already shipped its data.)
void ArmFaults(testbed::Testbed& tb) {
  tb.simulator().events().RunUntil(tb.simulator().now() + 0.1);
}

join::ProtocolConfig FaultyConfig() {
  join::ProtocolConfig config;
  config.max_retries = 6;
  config.retry_backoff_s = 0.5;
  return config;
}

/// FaultyConfig plus the self-healing stack: in-network tree repair, phase
/// watchdogs and graceful degradation to a certified partial result.
join::ProtocolConfig RepairConfig() {
  join::ProtocolConfig config = FaultyConfig();
  config.self_healing = true;
  return config;
}

/// Victims for the repair-vs-re-execution sweep: shallow relay nodes that
/// contribute no result rows but carry mid-sized subtrees. Their children
/// hit the dead parent near the END of the collection phase (the traversal
/// goes deepest-first), so the legacy path throws away almost a full
/// collection phase before re-executing, while in-network repair re-attaches
/// the orphaned subtrees and finishes the attempt. Because the victims' own
/// data matters to no result row, a repaired run stays complete.
///
/// The subtree-size band matters: the largest subtrees hang off the spine of
/// shallow relays near the root (the root sits at the field edge), and
/// crashing a spine node partitions the network at the root — nothing to
/// repair, and nothing for a rebuild to recover either. Mid-sized subtrees
/// have physical neighbors outside themselves in the constant-density
/// deployment, which is exactly the case in-network repair is for. Among the
/// in-band relays the SHALLOWEST are preferred: in the deepest-first
/// traversal their orphaned children transmit after most of the field, so
/// the baseline wastes the largest prefix of the phase. Victims are kept
/// ancestry-disjoint so one crash does not swallow another victim's subtree.
std::vector<sim::NodeId> PickRelayVictims(
    const testbed::Testbed& tb, const std::vector<sim::NodeId>& contributors,
    int count) {
  const net::RoutingTree& tree = tb.tree();
  const int max_subtree = std::max(8, tree.num_nodes() / 6);
  std::vector<sim::NodeId> relays;
  for (sim::NodeId u = 0; u < tree.num_nodes(); ++u) {
    if (!tree.InTree(u) || u == tree.root()) continue;
    if (tree.children(u).empty()) continue;
    if (tree.subtree_size(u) < 8 || tree.subtree_size(u) > max_subtree) {
      continue;
    }
    if (std::binary_search(contributors.begin(), contributors.end(), u)) {
      continue;
    }
    relays.push_back(u);
  }
  std::sort(relays.begin(), relays.end(),
            [&tree](sim::NodeId a, sim::NodeId b) {
              if (tree.hop_count(a) != tree.hop_count(b)) {
                return tree.hop_count(a) < tree.hop_count(b);
              }
              if (tree.subtree_size(a) != tree.subtree_size(b)) {
                return tree.subtree_size(a) > tree.subtree_size(b);
              }
              return a < b;
            });
  // A victim is only interesting if its orphans CAN be rescued: every
  // orphaned child needs a physical neighbor outside the union of all
  // crashed subtrees (otherwise the crash is a true partition — a corner
  // pocket bridged by one relay — and both protocols are equally helpless).
  std::vector<char> forbidden(tree.num_nodes(), 0);
  const sim::Simulator& sim = tb.simulator();
  auto rescueable = [&](sim::NodeId u) {
    std::vector<char> blocked = forbidden;
    for (sim::NodeId v : tree.SubtreeNodes(u)) blocked[v] = 1;
    for (sim::NodeId c : tree.children(u)) {
      bool has_exit = false;
      for (sim::NodeId v : sim.radio().Neighbors(c)) {
        if (!blocked[v] && tree.InTree(v) && sim.alive(v)) {
          has_exit = true;
          break;
        }
      }
      if (!has_exit) return false;
    }
    return true;
  };
  std::vector<sim::NodeId> victims;
  for (sim::NodeId u : relays) {
    if (static_cast<int>(victims.size()) >= count) break;
    bool overlaps = false;
    for (sim::NodeId v : victims) {
      overlaps = overlaps || tree.IsAncestor(u, v) || tree.IsAncestor(v, u);
    }
    if (overlaps || !rescueable(u)) continue;
    for (sim::NodeId v : tree.SubtreeNodes(u)) forbidden[v] = 1;
    victims.push_back(u);
  }
  return victims;
}

/// One cell of the repair-vs-re-execution sweep, kept numeric so the same
/// data feeds both the printed table and the optional JSON baseline.
struct RepairCell {
  double loss = 0.0;
  int crashes = 0;
  bool reexec_ok = false;
  double reexec_energy_mj = 0.0;
  double reexec_completeness = 0.0;
  int reexec_attempts = 0;
  double repair_energy_mj = 0.0;
  double repair_completeness = 0.0;
  uint64_t repair_packets = 0;
  size_t repairs_succeeded = 0;
  size_t excluded_nodes = 0;

  /// Energy saved by repairing in-network instead of re-executing.
  double saving() const {
    return reexec_ok && reexec_energy_mj > 0.0
               ? 1.0 - repair_energy_mj / reexec_energy_mj
               : 0.0;
  }
};

void WriteRepairJson(const std::string& path, uint64_t seed, int num_nodes,
                     const std::vector<RepairCell>& cells) {
  double min_completeness = 1.0;
  double worst_saving = 1.0;
  for (const RepairCell& c : cells) {
    min_completeness = std::min(min_completeness, c.repair_completeness);
    if (c.reexec_ok) worst_saving = std::min(worst_saving, c.saving());
  }
  std::ofstream out(path);
  out << "{\n  \"schema\": \"sensjoin-repair-v1\",\n"
      << "  \"seed\": " << seed << ",\n  \"num_nodes\": " << num_nodes
      << ",\n  \"min_repair_completeness\": " << min_completeness
      << ",\n  \"worst_energy_saving_vs_reexec\": " << worst_saving
      << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const RepairCell& c = cells[i];
    out << "    {\"loss\": " << c.loss << ", \"crashes\": " << c.crashes
        << ", \"reexec_ok\": " << (c.reexec_ok ? "true" : "false")
        << ", \"reexec_energy_mj\": " << c.reexec_energy_mj
        << ", \"reexec_completeness\": " << c.reexec_completeness
        << ", \"reexec_attempts\": " << c.reexec_attempts
        << ", \"repair_energy_mj\": " << c.repair_energy_mj
        << ", \"repair_completeness\": " << c.repair_completeness
        << ", \"repair_packets\": " << c.repair_packets
        << ", \"repairs_succeeded\": " << c.repairs_succeeded
        << ", \"excluded_nodes\": " << c.excluded_nodes
        << ", \"energy_saving\": " << c.saving() << "}"
        << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote repair sweep baseline to " << path << "\n";
}

/// One cell of the delivery-semantics sweep (duplication x jitter, plus a
/// replay cell that severs a relay uplink so attempt 1 aborts with
/// fragments in flight). Kept numeric for the table and JSON baseline.
struct DeliveryCell {
  double dup = 0.0;
  double jitter_s = 0.0;
  bool cut_uplink = false;
  bool sens_ok = false;
  uint64_t sens_packets = 0;
  uint64_t duplicate_packets = 0;
  uint64_t replayed_packets = 0;
  size_t duplicate_deliveries = 0;
  size_t stale_drops = 0;
  size_t reordered = 0;
  int attempts = 0;
  double sens_completeness = 0.0;
  double ext_completeness = 0.0;
};

void WriteDeliveryJson(const std::string& path, uint64_t seed, int num_nodes,
                       const std::vector<DeliveryCell>& cells) {
  double min_completeness = 1.0;
  bool replay_exercised = false;
  bool duplication_exercised = false;
  for (const DeliveryCell& c : cells) {
    min_completeness = std::min(
        min_completeness, std::min(c.sens_completeness, c.ext_completeness));
    replay_exercised = replay_exercised || c.replayed_packets > 0;
    duplication_exercised =
        duplication_exercised || c.duplicate_deliveries > 0;
  }
  std::ofstream out(path);
  out << "{\n  \"schema\": \"sensjoin-delivery-v1\",\n"
      << "  \"seed\": " << seed << ",\n  \"num_nodes\": " << num_nodes
      << ",\n  \"min_completeness\": " << min_completeness
      << ",\n  \"duplication_exercised\": "
      << (duplication_exercised ? "true" : "false")
      << ",\n  \"replay_exercised\": " << (replay_exercised ? "true" : "false")
      << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const DeliveryCell& c = cells[i];
    out << "    {\"duplication\": " << c.dup << ", \"jitter_s\": " << c.jitter_s
        << ", \"cut_uplink\": " << (c.cut_uplink ? "true" : "false")
        << ", \"sens_ok\": " << (c.sens_ok ? "true" : "false")
        << ", \"sens_packets\": " << c.sens_packets
        << ", \"duplicate_packets\": " << c.duplicate_packets
        << ", \"replayed_packets\": " << c.replayed_packets
        << ", \"duplicate_deliveries\": " << c.duplicate_deliveries
        << ", \"stale_drops\": " << c.stale_drops
        << ", \"reordered\": " << c.reordered
        << ", \"attempts\": " << c.attempts
        << ", \"sens_completeness\": " << c.sens_completeness
        << ", \"ext_completeness\": " << c.ext_completeness << "}"
        << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  std::cout << "\nwrote delivery sweep baseline to " << path << "\n";
}

/// A mid-tree relay whose uplink, when severed, aborts the first attempt
/// with earlier deliveries of that attempt still in flight — the
/// cross-attempt replay case. At least two alternate physical neighbors
/// guarantee the rebuilt tree reattaches the subtree, so the retried run
/// stays complete.
sim::NodeId PickReplayVictim(const testbed::Testbed& tb) {
  const net::RoutingTree& tree = tb.tree();
  for (sim::NodeId u : tree.collection_order()) {
    if (tree.hop_count(u) >= 2 && tree.subtree_size(u) >= 3 &&
        tb.simulator().radio().Neighbors(u).size() >= 3) {
      return u;
    }
  }
  return sim::kInvalidNode;
}

struct RunOutcome {
  bool ok = false;
  join::ExecutionReport report;
};

template <typename Executor>
RunOutcome Run(Executor executor, const query::AnalyzedQuery& q) {
  RunOutcome out;
  auto r = executor.Execute(q, 0);
  if (r.ok()) {
    out.ok = true;
    out.report = std::move(*r);
  }
  return out;
}

void Main(uint64_t seed, int num_nodes, int threads,
          const std::string& repair_json, const std::string& delivery_json) {
  const testbed::ParallelRunner runner(threads);
  std::cout << "Ablation -- fault tolerance: loss rate x node crashes, seed "
            << seed << ", " << num_nodes << " nodes\n"
            << "ARQ on (3 retransmissions), phase-level recovery on, "
               "crashes are permanent\n\n";

  // Fault-free ground truth on an untouched deployment.
  auto clean = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
  auto q = clean->ParseQuery(kQuery);
  SENSJOIN_CHECK(q.ok()) << q.status();
  auto truth = clean->MakeExternalJoin().Execute(*q, 0);
  SENSJOIN_CHECK(truth.ok()) << truth.status();
  const std::vector<sim::NodeId>& contributors =
      truth->result.contributing_nodes;
  SENSJOIN_CHECK(!contributors.empty())
      << "the fault-free run has no result rows at " << num_nodes
      << " nodes (nothing to crash); try the default 250 nodes or more";

  const std::vector<double> kLoss = {0.0, 0.05, 0.10, 0.20};
  const std::vector<int> kCrashes = {0, 1, 3};
  auto rows = runner.Run(
      static_cast<int>(kLoss.size() * kCrashes.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const double loss = kLoss[ctx.trial / kCrashes.size()];
        const int crashes = kCrashes[ctx.trial % kCrashes.size()];
        auto sens_tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
        sens_tb->InjectFaults(
            MakePlan(*sens_tb, contributors, loss, crashes, seed));
        ArmFaults(*sens_tb);
        auto sq = sens_tb->ParseQuery(kQuery);
        SENSJOIN_CHECK(sq.ok());
        const RunOutcome sens =
            Run(sens_tb->MakeSensJoin(FaultyConfig()), *sq);

        auto ext_tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
        ext_tb->InjectFaults(
            MakePlan(*ext_tb, contributors, loss, crashes, seed));
        ArmFaults(*ext_tb);
        auto eq = ext_tb->ParseQuery(kQuery);
        SENSJOIN_CHECK(eq.ok());
        const RunOutcome ext =
            Run(ext_tb->MakeExternalJoin(FaultyConfig()), *eq);

        return std::vector<std::string>{
            Percent(loss, 1.0), Fmt(static_cast<uint64_t>(crashes)),
            sens.ok ? Fmt(sens.report.cost.join_packets) : "fail",
            sens.ok ? Fmt(sens.report.cost.retransmitted_packets) : "-",
            sens.ok ? Fmt(sens.report.cost.retransmit_energy_mj) : "-",
            sens.ok ? Fmt(static_cast<uint64_t>(sens.report.attempts)) : "-",
            sens.ok
                ? Fmt(static_cast<uint64_t>(sens.report.recovery_requests))
                : "-",
            sens.ok ? Percent(testbed::ResultCompleteness(truth->result,
                                                          sens.report.result),
                              1.0)
                    : "0%",
            ext.ok ? Fmt(ext.report.cost.join_packets) : "fail",
            ext.ok ? Percent(testbed::ResultCompleteness(truth->result,
                                                         ext.report.result),
                             1.0)
                   : "0%"};
      });
  SENSJOIN_CHECK(rows.ok()) << rows.status();

  TablePrinter table({"loss", "crashes", "sens pkts", "retx", "retx mJ",
                      "att", "recov", "compl", "ext pkts", "ext compl"});
  for (std::vector<std::string>& row : *rows) table.AddRow(std::move(row));
  table.Print(std::cout);

  // Second sweep: payload corruption x CRC trailer. With the CRC on, every
  // damaged fragment is detected and resent (cost: trailer bytes plus
  // corruption-triggered retransmissions); with it off, damaged payloads
  // reach the decoders and completeness degrades instead.
  std::cout << "\nPayload corruption x CRC trailer (no loss, no crashes):\n";
  const std::vector<double> kCorr = {0.02, 0.05, 0.10};
  auto irows = runner.Run(
      static_cast<int>(kCorr.size()) * 2, seed,
      [&](const testbed::TrialContext& ctx) {
        const double corr = kCorr[ctx.trial / 2];
        const bool crc = ctx.trial % 2 == 0;
        auto corrupt_plan = [&](uint64_t salt) {
          sim::FaultPlan plan;
          plan.rates.corruption = corr;
          plan.arq.enabled = true;
          plan.arq.max_retransmissions = 6;
          plan.integrity.crc_enabled = crc;
          plan.seed = seed * 1000 + salt;
          return plan;
        };
        auto sens_tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
        sens_tb->InjectFaults(corrupt_plan(1));
        auto sq = sens_tb->ParseQuery(kQuery);
        SENSJOIN_CHECK(sq.ok());
        const RunOutcome sens =
            Run(sens_tb->MakeSensJoin(FaultyConfig()), *sq);

        auto ext_tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
        ext_tb->InjectFaults(corrupt_plan(2));
        auto eq = ext_tb->ParseQuery(kQuery);
        SENSJOIN_CHECK(eq.ok());
        const RunOutcome ext =
            Run(ext_tb->MakeExternalJoin(FaultyConfig()), *eq);

        return std::vector<std::string>{
            Percent(corr, 1.0), crc ? "on" : "off",
            sens.ok ? Fmt(sens.report.cost.join_packets) : "fail",
            sens.ok ? Fmt(sens.report.cost.corrupted_packets) : "-",
            sens.ok ? Fmt(sens.report.cost.undetected_corrupted_packets)
                    : "-",
            sens.ok ? Fmt(sens.report.cost.integrity_retransmit_energy_mj)
                    : "-",
            sens.ok ? Fmt(sens.report.cost.crc_bytes_sent) : "-",
            sens.ok ? Percent(testbed::ResultCompleteness(truth->result,
                                                          sens.report.result),
                              1.0)
                    : "0%",
            ext.ok ? Fmt(ext.report.cost.join_packets) : "fail",
            ext.ok ? Percent(testbed::ResultCompleteness(truth->result,
                                                         ext.report.result),
                             1.0)
                   : "0%"};
      });
  SENSJOIN_CHECK(irows.ok()) << irows.status();

  TablePrinter itable({"corr", "crc", "sens pkts", "corrupted", "undetect",
                       "integ mJ", "crc B", "compl", "ext pkts", "ext compl"});
  for (std::vector<std::string>& row : *irows) itable.AddRow(std::move(row));
  itable.Print(std::cout);

  // Third sweep: in-network tree repair vs the paper's full re-execution.
  // Shallow relay victims die before the run (between tree build and query
  // launch), so their orphaned children hit a dead parent near the end of
  // the deepest-first collection phase. The legacy path throws that phase
  // away and re-executes after a tree rebuild; the self-healing path
  // re-attaches the orphans in-network and finishes the attempt. Energy
  // includes rebuild beacons and repair traffic respectively.
  std::cout << "\nIn-network repair vs full re-execution (shallow relay "
               "victims down before the run, permanent):\n";
  const std::vector<double> kRepLoss = {0.0, 0.05, 0.10};
  const std::vector<int> kRepCrashes = {1, 2, 3};
  auto rcells = runner.Run(
      static_cast<int>(kRepLoss.size() * kRepCrashes.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        RepairCell cell;
        cell.loss = kRepLoss[ctx.trial / kRepCrashes.size()];
        cell.crashes = kRepCrashes[ctx.trial % kRepCrashes.size()];
        auto run_one = [&](const join::ProtocolConfig& config,
                           RunOutcome* out) {
          auto tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
          sim::FaultPlan plan;
          plan.rates.loss = cell.loss;
          plan.arq.enabled = true;
          plan.seed = seed * 1000 + static_cast<uint64_t>(cell.crashes);
          const sim::SimTime when = tb->simulator().now() + 0.05;
          for (sim::NodeId u :
               PickRelayVictims(*tb, contributors, cell.crashes)) {
            plan.crash_events.push_back({u, when, /*recover=*/false});
          }
          tb->InjectFaults(plan);
          ArmFaults(*tb);
          auto query = tb->ParseQuery(kQuery);
          SENSJOIN_CHECK(query.ok());
          *out = Run(tb->MakeSensJoin(config), *query);
        };
        RunOutcome reexec;
        RunOutcome repair;
        run_one(FaultyConfig(), &reexec);
        run_one(RepairConfig(), &repair);
        cell.reexec_ok = reexec.ok;
        if (reexec.ok) {
          // Cumulative energy over the whole Execute call: the wasted
          // attempts and the tree rebuilds between them are the cost this
          // sweep exists to measure.
          cell.reexec_energy_mj = reexec.report.total_cost.energy_mj;
          cell.reexec_completeness = testbed::ResultCompleteness(
              truth->result, reexec.report.result);
          cell.reexec_attempts = reexec.report.attempts;
        }
        // With graceful degradation on, the run completes or it's a bug.
        SENSJOIN_CHECK(repair.ok) << "repair-enabled run failed";
        cell.repair_energy_mj = repair.report.total_cost.energy_mj;
        cell.repair_completeness =
            testbed::ResultCompleteness(truth->result, repair.report.result);
        cell.repair_packets =
            repair.report.cost.packets(sim::MessageKind::kRepair);
        cell.repairs_succeeded = repair.report.repairs_succeeded;
        cell.excluded_nodes =
            repair.report.certificate.excluded_nodes.size();
        return cell;
      });
  SENSJOIN_CHECK(rcells.ok()) << rcells.status();

  TablePrinter rtable({"loss", "crashes", "re-exec mJ", "att", "re-compl",
                       "repair mJ", "rep pkts", "repairs", "excl",
                       "rep compl", "saving"});
  for (const RepairCell& c : *rcells) {
    rtable.AddRow({Percent(c.loss, 1.0), Fmt(static_cast<uint64_t>(c.crashes)),
                   c.reexec_ok ? Fmt(c.reexec_energy_mj) : "fail",
                   c.reexec_ok ? Fmt(static_cast<uint64_t>(c.reexec_attempts))
                               : "-",
                   c.reexec_ok ? Percent(c.reexec_completeness, 1.0) : "0%",
                   Fmt(c.repair_energy_mj), Fmt(c.repair_packets),
                   Fmt(static_cast<uint64_t>(c.repairs_succeeded)),
                   Fmt(static_cast<uint64_t>(c.excluded_nodes)),
                   Percent(c.repair_completeness, 1.0),
                   c.reexec_ok ? Percent(c.saving(), 1.0) : "-"});
  }
  rtable.Print(std::cout);
  if (!repair_json.empty()) {
    WriteRepairJson(repair_json, seed, num_nodes, *rcells);
  }

  // Fourth sweep: delivery semantics under duplication x reorder jitter,
  // plus a cross-attempt replay cell (a severed relay uplink aborts the
  // first attempt with fragments in flight; the replay buffer re-delivers
  // them into attempt 2, where the sequence guard drops them as stale).
  // None of these faults lose data, so completeness must stay at 100% —
  // the exactly-once contract this sweep certifies, and the floor the CI
  // smoke job enforces on the JSON baseline.
  std::cout << "\nDelivery semantics: duplication x jitter, cross-attempt "
               "replay (ARQ on, replay buffer on):\n";
  struct DeliveryPoint {
    double dup;
    double jitter_s;
    bool cut;
  };
  const std::vector<DeliveryPoint> kDelivery = {
      {0.00, 0.000, false}, {0.05, 0.000, false}, {0.15, 0.000, false},
      {0.05, 0.005, false}, {0.15, 0.010, false}, {0.05, 0.005, true},
  };
  auto dcells = runner.Run(
      static_cast<int>(kDelivery.size()), seed,
      [&](const testbed::TrialContext& ctx) {
        const DeliveryPoint& p = kDelivery[ctx.trial];
        DeliveryCell cell;
        cell.dup = p.dup;
        cell.jitter_s = p.jitter_s;
        cell.cut_uplink = p.cut;
        auto delivery_plan = [&](uint64_t salt) {
          sim::FaultPlan plan;
          plan.rates.duplication = p.dup;
          plan.delay.max_jitter_s = p.jitter_s;
          plan.enable_replay = true;
          plan.arq.enabled = true;
          plan.seed = seed * 1000 + salt;
          return plan;
        };
        auto sens_tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
        sens_tb->InjectFaults(
            delivery_plan(100 + static_cast<uint64_t>(ctx.trial)));
        if (p.cut) {
          const sim::NodeId victim = PickReplayVictim(*sens_tb);
          SENSJOIN_CHECK(victim != sim::kInvalidNode);
          sens_tb->simulator().radio().FailLink(
              victim, sens_tb->tree().parent(victim));
        }
        auto sq = sens_tb->ParseQuery(kQuery);
        SENSJOIN_CHECK(sq.ok());
        const RunOutcome sens =
            Run(sens_tb->MakeSensJoin(FaultyConfig()), *sq);
        cell.sens_ok = sens.ok;
        if (sens.ok) {
          cell.sens_packets = sens.report.total_cost.join_packets;
          cell.duplicate_packets = sens.report.total_cost.duplicate_packets;
          cell.replayed_packets = sens.report.total_cost.replayed_packets;
          cell.duplicate_deliveries = sens.report.duplicate_deliveries;
          cell.stale_drops = sens.report.stale_messages_dropped;
          cell.reordered = sens.report.reordered_messages;
          cell.attempts = sens.report.attempts;
          cell.sens_completeness = testbed::ResultCompleteness(
              truth->result, sens.report.result);
        }

        auto ext_tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
        ext_tb->InjectFaults(
            delivery_plan(200 + static_cast<uint64_t>(ctx.trial)));
        auto eq = ext_tb->ParseQuery(kQuery);
        SENSJOIN_CHECK(eq.ok());
        const RunOutcome ext =
            Run(ext_tb->MakeExternalJoin(FaultyConfig()), *eq);
        if (ext.ok) {
          cell.ext_completeness =
              testbed::ResultCompleteness(truth->result, ext.report.result);
        }
        return cell;
      });
  SENSJOIN_CHECK(dcells.ok()) << dcells.status();

  TablePrinter dtable({"dup", "jitter ms", "cut", "sens pkts", "dup pkts",
                       "replayed", "dup deliv", "stale", "reord", "att",
                       "compl", "ext compl"});
  for (const DeliveryCell& c : *dcells) {
    dtable.AddRow(
        {Percent(c.dup, 1.0), Fmt(c.jitter_s * 1000.0),
         c.cut_uplink ? "yes" : "no",
         c.sens_ok ? Fmt(c.sens_packets) : "fail",
         c.sens_ok ? Fmt(c.duplicate_packets) : "-",
         c.sens_ok ? Fmt(c.replayed_packets) : "-",
         c.sens_ok ? Fmt(static_cast<uint64_t>(c.duplicate_deliveries)) : "-",
         c.sens_ok ? Fmt(static_cast<uint64_t>(c.stale_drops)) : "-",
         c.sens_ok ? Fmt(static_cast<uint64_t>(c.reordered)) : "-",
         c.sens_ok ? Fmt(static_cast<uint64_t>(c.attempts)) : "-",
         c.sens_ok ? Percent(c.sens_completeness, 1.0) : "0%",
         Percent(c.ext_completeness, 1.0)});
  }
  dtable.Print(std::cout);
  if (!delivery_json.empty()) {
    WriteDeliveryJson(delivery_json, seed, num_nodes, *dcells);
  }

  std::cout << "\nSample fault summary (10% loss, 1 crash, SENS-Join):\n";
  auto tb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
  tb->InjectFaults(MakePlan(*tb, contributors, 0.10, 1, seed));
  ArmFaults(*tb);
  auto sq = tb->ParseQuery(kQuery);
  SENSJOIN_CHECK(sq.ok());
  const RunOutcome sample = Run(tb->MakeSensJoin(FaultyConfig()), *sq);
  if (sample.ok) {
    std::cout << testbed::FaultToleranceSummary(
        sample.report.cost,
        testbed::ResultCompleteness(truth->result, sample.report.result));
  } else {
    std::cout << "run failed (network partitioned)\n";
  }

  std::cout << "\nSample integrity summary (5% corruption, CRC on, "
               "SENS-Join):\n";
  auto itb = MustCreateTestbed(PaperDefaultParams(seed, num_nodes));
  sim::FaultPlan iplan;
  iplan.rates.corruption = 0.05;
  iplan.arq.enabled = true;
  iplan.arq.max_retransmissions = 6;
  iplan.seed = seed * 1000 + 7;
  itb->InjectFaults(iplan);
  auto iq = itb->ParseQuery(kQuery);
  SENSJOIN_CHECK(iq.ok());
  const RunOutcome isample = Run(itb->MakeSensJoin(FaultyConfig()), *iq);
  if (isample.ok) {
    std::cout << testbed::FaultToleranceSummary(
        isample.report.cost,
        testbed::ResultCompleteness(truth->result, isample.report.result));
  } else {
    std::cout << "run failed (network partitioned)\n";
  }
}

}  // namespace
}  // namespace sensjoin::bench

namespace sensjoin::bench {
namespace {

/// Strips a `--<name>=FILE` argument (a sweep's JSON baseline destination)
/// so positional seed/node-count parsing is unaffected.
std::string ParseJsonFlag(const std::string& flag, int* argc, char** argv) {
  const std::string prefix = "--" + flag + "=";
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
  const std::string repair_json =
      sensjoin::bench::ParseJsonFlag("repair-json", &argc, argv);
  const std::string delivery_json =
      sensjoin::bench::ParseJsonFlag("delivery-json", &argc, argv);
  const uint64_t seed = sensjoin::testbed::ParseSeedArg(argc, argv, 42);
  const int num_nodes = argc > 2 ? std::atoi(argv[2]) : 250;
  if (!trace.only) {
    sensjoin::bench::Main(seed, num_nodes, threads, repair_json,
                          delivery_json);
  }
  if (trace.enabled()) {
    sensjoin::bench::RunTracedExecution(trace, seed, num_nodes);
  }
  return 0;
}
