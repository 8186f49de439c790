#include "sensjoin/join/fault_ladder.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/stats.h"

namespace sensjoin::join {
namespace {

/// Installs a receive handler for its lifetime, then restores the previous
/// one.
class ScopedReceiveHandler {
 public:
  ScopedReceiveHandler(sim::Simulator& sim,
                       sim::Simulator::ReceiveHandler handler)
      : sim_(sim), other_(std::move(handler)) {
    Swap();
  }
  ~ScopedReceiveHandler() { Swap(); }
  ScopedReceiveHandler(const ScopedReceiveHandler&) = delete;
  ScopedReceiveHandler& operator=(const ScopedReceiveHandler&) = delete;

 private:
  void Swap() { other_ = sim_.SetReceiveHandler(std::move(other_)); }

  sim::Simulator& sim_;
  sim::Simulator::ReceiveHandler other_;
};

/// Sorts and deduplicates a node list.
std::vector<sim::NodeId> SortedUnique(std::vector<sim::NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace

FaultLadder::FaultLadder(sim::Simulator& sim, net::RoutingTree& tree,
                         const ProtocolConfig& config,
                         sim::DeliveryGuard& guard, ExecutionReport& report,
                         int recovery_budget)
    : sim_(sim),
      tree_(tree),
      config_(config),
      guard_(guard),
      report_(report),
      recovery_budget_(recovery_budget) {
  // Rung 3; repair unicasts take part in the attempt's exactly-once
  // validation.
  if (config.self_healing) maintenance_.emplace(sim, tree, &guard);
}

bool FaultLadder::Send(sim::Message msg, bool* corrupted) {
  guard_.Stamp(msg);
  if (sim_.SendUnicast(msg, corrupted)) return true;
  // A send that failed while both endpoints are alive and the link is up is
  // transient loss that outlasted the ARQ budget: the receiver re-requests
  // the missing contribution (NACK down the hop) and the sender re-sends it
  // from stored state. Crashes and downed links are persistent.
  for (int r = 0; r < recovery_budget_; ++r) {
    if (!sim_.alive(msg.src) || !sim_.alive(msg.dst) ||
        !sim_.radio().LinkUp(msg.src, msg.dst)) {
      break;
    }
    sim::Message rereq;
    rereq.src = msg.dst;
    rereq.dst = msg.src;
    rereq.kind = sim::MessageKind::kControl;
    rereq.payload_bytes = 4;  // names the missing contribution
    guard_.Stamp(rereq);
    if (!sim_.SendUnicast(rereq)) guard_.Retract(rereq);
    ++report_.recovery_requests;
    if (trace_on()) {
      sim_.tracer()->Record(obs::EventKind::kRecoveryRequest, sim_.now(),
                            msg.dst, msg.src, msg.kind, /*count=*/1,
                            /*bytes=*/0, /*energy_mj=*/0.0);
    }
    if (sim_.SendUnicast(msg, corrupted)) return true;
  }
  guard_.Retract(msg);
  return false;
}

void FaultLadder::ArmWatchdog() {
  phase_deadline_ = config_.self_healing
                        ? sim_.now() + config_.watchdog_base_s +
                              tree_.max_depth() * sim_.per_packet_latency_s() *
                                  config_.watchdog_per_hop_factor
                        : sim::kSimTimeMax;
}

bool FaultLadder::WatchdogExpired(obs::Phase phase) {
  if (sim_.now() <= phase_deadline_) return false;
  ++report_.watchdog_expirations;
  if (trace_on()) {
    sim_.tracer()->Record(obs::EventKind::kDeadlineExpired, sim_.now(),
                          tree_.root(), sim::kInvalidNode,
                          sim::MessageKind::kControl, /*count=*/0,
                          /*bytes=*/0, /*energy_mj=*/0.0,
                          /*detail=*/static_cast<uint32_t>(phase));
  }
  return true;
}

bool FaultLadder::Repair(sim::NodeId u, obs::Phase phase,
                         const ParentAcceptable& parent_ok) {
  if (WatchdogExpired(phase) || !maintenance_) return false;
  ++report_.repairs_attempted;
  // A new parent must not forward through a branch whose contribution was
  // already given up on: its path would be silent for the rest of the
  // attempt.
  const bool repaired = maintenance_->Repair(u, [&](sim::NodeId cand) {
    if (parent_ok && !parent_ok(cand)) return false;
    for (sim::NodeId v = cand; v != tree_.root(); v = tree_.parent(v)) {
      if (IsExcluded(v)) return false;
    }
    return true;
  });
  if (!repaired) return false;
  ++report_.repairs_succeeded;
  repaired_roots_.push_back(u);
  return true;
}

bool FaultLadder::Degrade(sim::NodeId at,
                          const std::vector<sim::NodeId>& nodes) {
  if (!config_.self_healing) return false;
  excluded_roots_.push_back(at);
  excluded_.insert(nodes.begin(), nodes.end());
  return true;
}

bool FaultLadder::RescueTuples(sim::NodeId u,
                               std::vector<data::Tuple> contribution,
                               size_t payload, obs::Phase phase,
                               const std::vector<char>& done,
                               std::vector<std::vector<data::Tuple>>& pending,
                               const ParentAcceptable& parent_ok) {
  // The contribution carries exactly these nodes' rows.
  std::vector<sim::NodeId> lost;
  lost.reserve(contribution.size());
  for (const data::Tuple& t : contribution) lost.push_back(t.node);
  if (!Repair(u, phase, parent_ok)) return Degrade(u, lost);
  sim::NodeId v = u;
  for (;;) {
    const sim::NodeId dst = tree_.parent(v);
    sim::Message msg;
    msg.src = v;
    msg.dst = dst;
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = payload;
    bool corrupted = false;
    if (!Send(msg, &corrupted)) return Degrade(u, lost);
    if (corrupted) {
      // Garbled tuples are discarded upstream like any other corrupt
      // delivery (the chaos invariants gate exactness on zero corrupted
      // deliveries).
      ++report_.corrupted_deliveries;
      return true;
    }
    v = dst;
    if (!done[v]) break;  // v's turn is still to come: it buffers
  }
  std::vector<data::Tuple>& up = pending[v];
  up.insert(up.end(), std::make_move_iterator(contribution.begin()),
            std::make_move_iterator(contribution.end()));
  return true;
}

void FaultLadder::Certify(CompletenessCertificate* out) {
  for (sim::NodeId u : tree_.UnreachableNodes()) {
    if (excluded_.insert(u).second) excluded_roots_.push_back(u);
  }
  CompletenessCertificate& cert = *out;
  cert.excluded_nodes.assign(excluded_.begin(), excluded_.end());
  cert.excluded_subtree_roots = SortedUnique(std::move(excluded_roots_));
  cert.repaired_roots = SortedUnique(std::move(repaired_roots_));
  cert.total_nodes = sim_.num_nodes();
  cert.reporting_nodes =
      cert.total_nodes - static_cast<int>(cert.excluded_nodes.size());
  cert.degraded = !cert.excluded_nodes.empty();
  if (cert.degraded && trace_on()) {
    sim_.tracer()->Record(obs::EventKind::kDegradedResult, sim_.now(),
                          tree_.root(), sim::kInvalidNode,
                          sim::MessageKind::kControl,
                          static_cast<uint32_t>(cert.excluded_nodes.size()),
                          /*bytes=*/0, /*energy_mj=*/0.0);
  }
}

StatusOr<ExecutionReport> RunAttempts(
    sim::Simulator& sim, net::RoutingTree& tree, const ProtocolConfig& config,
    int recovery_budget, std::optional<obs::Phase> attempt_span,
    const char* exhausted_message, const AttemptBody& body) {
  const StatsSnapshot execute_snapshot(sim);
  // Exactly-once validation: every unicast of the execution is stamped with
  // an (attempt, per-link sequence) tag, and every queue-level delivery is
  // fed through the guard. The canonical state application happens inline
  // at send time (the omniscient-driver model), so the handler's verdicts
  // drive counters and trace events, never protocol state — which is what
  // keeps fault-free runs bit-identical to the seed.
  sim::DeliveryGuard guard;
  const ScopedReceiveHandler handler(
      sim, [&sim, &guard](sim::NodeId receiver, const sim::Message& msg) {
        const sim::DeliveryVerdict verdict = guard.Classify(receiver, msg);
        if (verdict == sim::DeliveryVerdict::kStale &&
            obs::kTracingCompiledIn && sim.tracer() != nullptr &&
            sim.tracer()->enabled()) {
          sim.tracer()->Record(obs::EventKind::kStaleDrop, sim.now(),
                               receiver, msg.src, msg.kind, /*count=*/1,
                               /*bytes=*/0, /*energy_mj=*/0.0,
                               /*detail=*/msg.tag.attempt_id);
        }
      });

  ExecutionReport failed_attempts;  // ladder counters of aborted attempts
  const uint32_t first_attempt_id = sim.FreshAttemptId();
  for (int attempt = 0; attempt <= config.max_retries; ++attempt) {
    guard.BeginAttempt(first_attempt_id + static_cast<uint32_t>(attempt));
    // In-flight messages captured from an aborted attempt are re-delivered
    // now; the guard classifies them as stale (their attempt id is old).
    sim.ReleaseReplays();
    ExecutionReport report;
    report.attempts = attempt + 1;
    const StatsSnapshot snapshot(sim);
    const double start_time = sim.now();
    bool ok = false;
    {
      std::optional<obs::ScopedPhase> span;
      if (attempt_span) span.emplace(sim.tracer(), sim.events(), *attempt_span);
      FaultLadder ladder(sim, tree, config, guard, report, recovery_budget);
      SENSJOIN_ASSIGN_OR_RETURN(ok, body(ladder, &report));
      if (ok) {
        ladder.Certify(&report.certificate);
      } else {
        // Capture still-flying deliveries of the aborted attempt for
        // replay before the drain delivers them normally.
        sim.NotifyAttemptAbort();
      }
      sim.events().Run();
      sim.events().ShrinkToFit();
    }
    if (ok) {
      report.success = true;
      report.recovery_requests += failed_attempts.recovery_requests;
      report.repairs_attempted += failed_attempts.repairs_attempted;
      report.repairs_succeeded += failed_attempts.repairs_succeeded;
      report.watchdog_expirations += failed_attempts.watchdog_expirations;
      report.duplicate_deliveries = guard.duplicate_deliveries();
      report.stale_messages_dropped = guard.stale_drops();
      report.reordered_messages = guard.reordered_deliveries();
      SENSJOIN_CHECK_EQ(guard.phantom_deliveries(), 0u)
          << "delivery validator saw a tag that was never stamped";
      report.cost = snapshot.DeltaTo(sim);
      report.total_cost = execute_snapshot.DeltaTo(sim);
      report.response_time_s = sim.now() - start_time;
      return report;
    }
    failed_attempts.recovery_requests += report.recovery_requests;
    failed_attempts.repairs_attempted += report.repairs_attempted;
    failed_attempts.repairs_succeeded += report.repairs_succeeded;
    failed_attempts.watchdog_expirations += report.watchdog_expirations;
    // Link failure: wait out the CTP repair window (scheduled node
    // recoveries can fire meanwhile), let the tree protocol re-establish
    // routes, and re-execute the query (Sec. IV-F).
    if (config.retry_backoff_s > 0) {
      sim.events().RunUntil(sim.now() + config.retry_backoff_s);
    }
    tree = net::RoutingTree::Build(sim, tree.root());
  }
  SENSJOIN_CHECK_EQ(guard.phantom_deliveries(), 0u)
      << "delivery validator saw a tag that was never stamped";
  return Status::ResourceExhausted(exhausted_message);
}

}  // namespace sensjoin::join
