#ifndef SENSJOIN_JOIN_FAULT_LADDER_H_
#define SENSJOIN_JOIN_FAULT_LADDER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/net/tree_maintenance.h"
#include "sensjoin/obs/trace.h"
#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

/// Re-request rounds per failed hop (the recovery budget of the executors
/// that re-request) before falling back to full re-execution.
inline constexpr int kMaxRecoveryRequests = 2;

/// The self-healing ladder of one execution attempt, shared by every
/// executor in join/ and the continuous service's delta executor. A
/// persistent hop failure escalates in order (rungs 2-4 opt-in together via
/// ProtocolConfig::self_healing, inert by default, which keeps fault-free
/// runs bit-identical to the seed):
///
///  1. phase-level recovery: the receiver re-requests the missing
///     contribution over the same hop, up to `recovery_budget` times;
///  2. phase watchdog: a phase past its depth-scaled sim-time deadline
///     stops repairing and degrades;
///  3. in-network tree repair (net::TreeMaintenance): the orphan
///     re-attaches under a live neighbor and its contribution is relayed
///     onward;
///  4. graceful degradation: the loss is recorded and certified in the
///     attempt's CompletenessCertificate.
///
/// When every rung fails the attempt aborts; RunAttempts then rebuilds the
/// tree and re-executes (Sec. IV-F).
class FaultLadder {
 public:
  /// Extra admission predicate on repair parents (empty = any).
  using ParentAcceptable = net::TreeMaintenance::ParentAcceptable;

  /// All references must outlive the ladder. `tree` is the executor's tree;
  /// repairs mutate it in place. `recovery_budget` bounds the recovery
  /// re-requests per failed hop (0 = none).
  FaultLadder(sim::Simulator& sim, net::RoutingTree& tree,
              const ProtocolConfig& config, sim::DeliveryGuard& guard,
              ExecutionReport& report, int recovery_budget);

  /// Stamped unicast with phase-level recovery. The message is stamped once
  /// before the first send; recovery resends keep the tag (the receiver's
  /// guard drops a resend of a message that did arrive as a duplicate). A
  /// permanently failed send retracts its tag so the ordering check never
  /// waits on a delivery that cannot come. False = persistent failure.
  bool Send(sim::Message msg, bool* corrupted);

  /// Arms the watchdog for the phase starting now.
  void ArmWatchdog();
  /// True (counted and traced) once the armed phase overran its deadline.
  bool WatchdogExpired(obs::Phase phase);

  /// Rungs 2-3 for a persistent upward failure at `u`: unless the watchdog
  /// expired, re-attaches `u` under a parent outside every excluded branch
  /// that also passes `parent_ok`. True when `u` now has a new parent;
  /// false means the caller degrades.
  bool Repair(sim::NodeId u, obs::Phase phase,
              const ParentAcceptable& parent_ok = {});

  /// Rung 4: certifies `nodes` as lost, with `at` as the excluded subtree
  /// root. False when self-healing is off (the attempt aborts).
  bool Degrade(sim::NodeId at, const std::vector<sim::NodeId>& nodes);

  bool IsExcluded(sim::NodeId u) const { return excluded_.count(u) != 0; }

  sim::Simulator& sim() const { return sim_; }
  /// The attempt's tree; repairs mutate it.
  net::RoutingTree& tree() const { return tree_; }

  /// Escalation for a persistent upward failure of complete tuples at `u`
  /// in a tuple-shipping phase: repair, then relay the contribution hop by
  /// hop through ancestors whose turn has passed (`done`) until a node
  /// whose turn is still to come buffers it in `pending`; degrade on any
  /// failure. False only when the attempt must abort.
  bool RescueTuples(sim::NodeId u, std::vector<data::Tuple> contribution,
                    size_t payload, obs::Phase phase,
                    const std::vector<char>& done,
                    std::vector<std::vector<data::Tuple>>& pending,
                    const ParentAcceptable& parent_ok = {});

  /// Fills the completeness certificate of a successful attempt. Nodes the
  /// routing tree never reached (partitioned field, dead at build time)
  /// count as excluded even with self-healing off: their data
  /// cannot be in the result and the certificate must say so.
  void Certify(CompletenessCertificate* out);

 private:
  bool trace_on() const {
    return obs::kTracingCompiledIn && sim_.tracer() != nullptr &&
           sim_.tracer()->enabled();
  }

  sim::Simulator& sim_;
  net::RoutingTree& tree_;
  const ProtocolConfig& config_;
  sim::DeliveryGuard& guard_;
  ExecutionReport& report_;
  const int recovery_budget_;
  std::optional<net::TreeMaintenance> maintenance_;
  double phase_deadline_ = sim::kSimTimeMax;
  std::set<sim::NodeId> excluded_;           ///< nodes whose data is lost
  std::vector<sim::NodeId> excluded_roots_;  ///< shallowest node per loss
  std::vector<sim::NodeId> repaired_roots_;  ///< re-attached orphans
};

/// One attempt body: runs the phases through `ladder`, fills `report`, and
/// returns true on success or false on a persistent failure that needs a
/// tree rebuild and a re-execution.
using AttemptBody =
    std::function<StatusOr<bool>(FaultLadder& ladder, ExecutionReport* report)>;

/// The attempt driver of every executor in join/ and of each continuous
/// service epoch. Installs the exactly-once sim::DeliveryGuard as the
/// simulator's receive handler for the whole call and runs `body` on a
/// fresh FaultLadder per attempt. The guard only detects: its verdicts feed
/// the report's counters and the trace, and a phantom tag (one never
/// stamped) is a CHECK failure on success and exhaustion alike. After each
/// attempt it drains the event queue (capturing an aborted attempt's in-flight
/// deliveries for replay first); a successful attempt is certified and
/// returned with the counters of the failed attempts folded in, `cost`
/// covering it alone and `total_cost` the whole call. A failed attempt
/// waits out `config.retry_backoff_s`, rebuilds `tree` (CTP repair) and
/// re-executes, up to `config.max_retries` times; then the call fails with
/// ResourceExhausted(`exhausted_message`). A body that keeps state indexed
/// by the tree must drop it before it returns false. When set,
/// `attempt_span` is a trace span enclosing each attempt including its
/// abort and drain. Attempt ids start above every tag still waiting in the
/// simulator's replay buffer (Simulator::FreshAttemptId), so what an
/// earlier exhausted call left in flight replays into this one as stale.
StatusOr<ExecutionReport> RunAttempts(
    sim::Simulator& sim, net::RoutingTree& tree, const ProtocolConfig& config,
    int recovery_budget, std::optional<obs::Phase> attempt_span,
    const char* exhausted_message, const AttemptBody& body);

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_FAULT_LADDER_H_
