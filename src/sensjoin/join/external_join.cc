#include "sensjoin/join/external_join.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/net/tree_maintenance.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::join {

ExternalJoinExecutor::ExternalJoinExecutor(sim::Simulator& sim,
                                           net::RoutingTree tree,
                                           const data::NetworkData& data,
                                           ProtocolConfig config)
    : sim_(sim), tree_(std::move(tree)), data_(data), config_(config) {}

StatusOr<ExecutionReport> ExternalJoinExecutor::Execute(
    const query::AnalyzedQuery& q, uint64_t epoch) {
  size_t repairs_attempted_total = 0;
  size_t repairs_succeeded_total = 0;
  size_t watchdog_expirations_total = 0;
  const StatsSnapshot execute_snapshot(sim_);

  // Exactly-once validation, mirroring the SENS-Join executor: unicasts are
  // stamped, queue-level deliveries classified; verdicts drive counters and
  // trace events only (state is applied inline at send time), keeping
  // fault-free runs bit-identical to the seed.
  DeliveryGuard guard(
      config_.dedup_window,
      config_.charge_tag_wire_bytes ? config_.tag_wire_bytes : 0);
  auto previous_handler = sim_.SetReceiveHandler(
      [this, &guard](sim::NodeId receiver, const sim::Message& msg) {
        const DeliveryVerdict verdict = guard.Classify(receiver, msg);
        if (verdict == DeliveryVerdict::kStale && obs::kTracingCompiledIn &&
            sim_.tracer() != nullptr && sim_.tracer()->enabled()) {
          sim_.tracer()->Record(obs::EventKind::kStaleDrop, sim_.now(),
                                receiver, msg.src, msg.kind, /*count=*/1,
                                /*bytes=*/0, /*energy_mj=*/0.0,
                                /*detail=*/msg.tag.attempt_id);
        }
      });
  struct HandlerRestore {
    sim::Simulator& sim;
    sim::Simulator::ReceiveHandler previous;
    ~HandlerRestore() { sim.SetReceiveHandler(std::move(previous)); }
  } handler_restore{sim_, std::move(previous_handler)};

  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    guard.BeginAttempt(static_cast<uint32_t>(attempt));
    // In-flight messages captured from an aborted attempt are re-delivered
    // now; the guard classifies them as stale (their attempt id is old).
    sim_.ReleaseReplays();
    ExecutionReport report;
    report.attempts = attempt + 1;
    const StatsSnapshot snapshot(sim_);
    const double start_time = sim_.now();
    bool ok;
    {
      obs::ScopedPhase span(sim_.tracer(), sim_.events(),
                            obs::Phase::kExternalCollection);
      ok = ExecuteAttempt(q, epoch, &guard, &report);
      // Capture still-flying deliveries of an aborted attempt for replay
      // before the drain delivers them normally.
      if (!ok) sim_.NotifyAttemptAbort();
      // Drain in-flight events inside the phase span on both paths; the
      // failure path used to drain right after the attempt anyway.
      sim_.events().Run();
      sim_.events().ShrinkToFit();
    }
    if (ok) {
      report.success = true;
      report.repairs_attempted += repairs_attempted_total;
      report.repairs_succeeded += repairs_succeeded_total;
      report.watchdog_expirations += watchdog_expirations_total;
      report.duplicate_deliveries = guard.duplicate_deliveries();
      report.stale_messages_dropped = guard.stale_drops();
      report.reordered_messages = guard.reordered_deliveries();
      SENSJOIN_CHECK_EQ(guard.phantom_deliveries(), 0u)
          << "delivery validator saw a tag that was never stamped";
      report.cost = snapshot.DeltaTo(sim_);
      report.total_cost = execute_snapshot.DeltaTo(sim_);
      report.response_time_s = sim_.now() - start_time;
      return report;
    }
    repairs_attempted_total += report.repairs_attempted;
    repairs_succeeded_total += report.repairs_succeeded;
    watchdog_expirations_total += report.watchdog_expirations;
    // Link failure mid-execution: wait out the CTP repair window (scheduled
    // node recoveries can fire meanwhile), let the tree protocol repair the
    // routes, and re-execute (Sec. IV-F).
    if (config_.retry_backoff_s > 0) {
      sim_.events().RunUntil(sim_.now() + config_.retry_backoff_s);
    }
    tree_ = net::RoutingTree::Build(sim_, tree_.root());
  }
  return Status::ResourceExhausted(
      "external join failed after retries (network partitioned?)");
}

bool ExternalJoinExecutor::ExecuteAttempt(const query::AnalyzedQuery& q,
                                          uint64_t epoch, DeliveryGuard* guard,
                                          ExecutionReport* report) {
  const ExecutorContext ctx(data_, q, epoch);

  // Stamp-before-send wrapper: a failed send retracts its tag so the
  // ordering check never waits on a delivery that cannot come.
  auto send_tagged = [this, guard](sim::Message msg,
                                   bool* corrupted = nullptr) -> bool {
    guard->Stamp(msg);
    if (sim_.SendUnicast(msg, corrupted)) return true;
    guard->Retract(msg);
    return false;
  };
  const int n = sim_.num_nodes();
  const sim::NodeId root = tree_.root();
  // Tuples waiting at each node to be forwarded upward.
  std::vector<std::vector<data::Tuple>> pending(n);
  std::vector<data::Tuple> base_candidates;

  // Self-healing machinery, mirroring the SENS-Join executor (all inert
  // under the default config; see sens_join.h for the escalation order).
  std::set<sim::NodeId> excluded;
  std::vector<sim::NodeId> excluded_roots;
  std::vector<sim::NodeId> repaired_roots;
  std::optional<net::TreeMaintenance> maintenance;
  if (config_.enable_tree_repair) {
    net::TreeMaintenanceConfig mc;
    mc.max_repair_rounds = config_.max_repair_rounds;
    mc.round_wait_s = config_.repair_round_wait_s;
    mc.stamp = [guard](sim::Message& m) { guard->Stamp(m); };
    mc.retract = [guard](const sim::Message& m) { guard->Retract(m); };
    maintenance.emplace(sim_, tree_, mc);
  }
  auto trace_on = [this] {
    return obs::kTracingCompiledIn && sim_.tracer() != nullptr &&
           sim_.tracer()->enabled();
  };
  auto repair_parent_ok = [&](sim::NodeId cand) {
    for (sim::NodeId v = cand; v != root; v = tree_.parent(v)) {
      if (excluded.count(v) != 0) return false;
    }
    return true;
  };
  const double phase_deadline =
      config_.enable_phase_watchdog
          ? sim_.now() + config_.watchdog_base_s +
                tree_.max_depth() * sim_.per_packet_latency_s() *
                    config_.watchdog_per_hop_factor
          : sim::kSimTimeMax;
  auto watchdog_expired = [&]() {
    if (sim_.now() <= phase_deadline) return false;
    ++report->watchdog_expirations;
    if (trace_on()) {
      sim_.tracer()->Record(
          obs::EventKind::kDeadlineExpired, sim_.now(), root,
          sim::kInvalidNode, sim::MessageKind::kControl, /*count=*/0,
          /*bytes=*/0, /*energy_mj=*/0.0,
          /*detail=*/static_cast<uint32_t>(obs::Phase::kExternalCollection));
    }
    return true;
  };

  // Collection-turn flags: repairs mutate the tree mid-phase, so the
  // traversal iterates an order snapshot and rescued contributions are
  // relayed through already-processed nodes.
  std::vector<char> done(n, 0);

  // Escalation for a persistent upward-send failure at `u`. Returns false
  // only when the attempt must abort (full re-execution).
  auto rescue = [&](sim::NodeId u, std::vector<data::Tuple> contribution,
                    size_t payload) -> bool {
    std::vector<sim::NodeId> lost;
    lost.reserve(contribution.size());
    for (const data::Tuple& t : contribution) lost.push_back(t.node);
    auto degrade = [&]() -> bool {
      if (!config_.enable_graceful_degradation) return false;
      excluded_roots.push_back(u);
      excluded.insert(lost.begin(), lost.end());
      return true;
    };
    if (watchdog_expired()) return degrade();
    if (!maintenance) return degrade();
    ++report->repairs_attempted;
    if (!maintenance->Repair(u, repair_parent_ok)) return degrade();
    ++report->repairs_succeeded;
    repaired_roots.push_back(u);
    sim::NodeId v = u;
    for (;;) {
      const sim::NodeId dst = tree_.parent(v);
      sim::Message msg;
      msg.src = v;
      msg.dst = dst;
      msg.kind = sim::MessageKind::kFinal;
      msg.payload_bytes = payload;
      bool corrupted = false;
      if (!send_tagged(std::move(msg), &corrupted)) return degrade();
      if (corrupted) {
        ++report->corrupted_deliveries;
        return true;
      }
      v = dst;
      if (!done[v]) break;  // v's turn is still to come: it buffers
    }
    std::vector<data::Tuple>& up = pending[v];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
    return true;
  };

  const std::vector<sim::NodeId> order = tree_.collection_order();
  for (sim::NodeId u : order) {
    done[u] = 1;
    std::vector<data::Tuple> contribution = std::move(pending[u]);
    if (ctx.info(u).has_tuple) contribution.push_back(ctx.info(u).tuple);
    if (u == root) {
      base_candidates = std::move(contribution);
      continue;
    }
    if (contribution.empty()) continue;

    size_t payload = 0;
    for (const data::Tuple& t : contribution) {
      payload += ctx.info(t.node).full_tuple_bytes;
    }
    sim::Message msg;
    msg.src = u;
    msg.dst = tree_.parent(u);
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = payload;
    bool corrupted = false;
    if (!send_tagged(std::move(msg), &corrupted)) {
      if (!rescue(u, std::move(contribution), payload)) return false;
      continue;
    }
    if (corrupted) {
      // With the CRC trailer off, garbled tuples slip through the link
      // layer but are unusable: the subtree's rows are lost.
      ++report->corrupted_deliveries;
      continue;
    }
    std::vector<data::Tuple>& up = pending[tree_.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }

  report->candidate_tuples = base_candidates.size();
  report->result = ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));

  // Completeness certificate (never-reachable nodes always count; see
  // sens_join.cc for the rationale).
  for (sim::NodeId u : tree_.UnreachableNodes()) {
    if (excluded.insert(u).second) excluded_roots.push_back(u);
  }
  CompletenessCertificate& cert = report->certificate;
  cert.excluded_nodes.assign(excluded.begin(), excluded.end());
  std::sort(excluded_roots.begin(), excluded_roots.end());
  excluded_roots.erase(
      std::unique(excluded_roots.begin(), excluded_roots.end()),
      excluded_roots.end());
  cert.excluded_subtree_roots = std::move(excluded_roots);
  std::sort(repaired_roots.begin(), repaired_roots.end());
  repaired_roots.erase(
      std::unique(repaired_roots.begin(), repaired_roots.end()),
      repaired_roots.end());
  cert.repaired_roots = std::move(repaired_roots);
  cert.total_nodes = n;
  cert.reporting_nodes = n - static_cast<int>(cert.excluded_nodes.size());
  cert.degraded = !cert.excluded_nodes.empty();
  if (cert.degraded && trace_on()) {
    sim_.tracer()->Record(obs::EventKind::kDegradedResult, sim_.now(), root,
                          sim::kInvalidNode, sim::MessageKind::kControl,
                          static_cast<uint32_t>(cert.excluded_nodes.size()),
                          /*bytes=*/0, /*energy_mj=*/0.0);
  }
  return true;
}

}  // namespace sensjoin::join
