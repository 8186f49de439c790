#ifndef SENSJOIN_NET_TREE_MAINTENANCE_H_
#define SENSJOIN_NET_TREE_MAINTENANCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sensjoin/common/bit_stream.h"
#include "sensjoin/common/status.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/sim/simulator.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::net {

/// Wire payload of the repair-request beacon an orphan broadcasts. The
/// encoded form really crosses the (simulated) wire and is decoded by a
/// hardened decoder on the receiver path — fuzzed by
/// fuzz/repair_beacon_fuzz.cc.
struct RepairRequest {
  sim::NodeId orphan = sim::kInvalidNode;
  sim::NodeId dead_parent = sim::kInvalidNode;  ///< may be kInvalidNode
  int old_hops = -1;  ///< orphan's depth before the failure; -1 = unknown
  int round = 0;      ///< 0-based broadcast round
};

/// Wire size of an encoded repair request (magic + 2 node ids + hops +
/// round).
inline constexpr size_t kRepairRequestBytes = 7;

/// Encodes `req` to its wire bitstring. Requires ids < 0xFFFF and fields in
/// range (checked).
BitWriter EncodeRepairRequest(const RepairRequest& req);

/// Hardened decoder over untrusted bytes: every structural violation
/// (short buffer, bad magic, out-of-range field, trailing garbage) is a
/// non-OK Status, never a crash. `num_nodes` bounds the node-id range; pass
/// 0 to skip the range check (fuzzing without a topology).
Status DecodeRepairRequest(const uint8_t* bytes, size_t size_bits,
                           int num_nodes, RepairRequest* out);

/// Counters kept across Repair calls (one instance per execution attempt).
struct RepairStats {
  int orphans_detected = 0;
  int repairs_succeeded = 0;
  int repairs_failed = 0;
  int requests_broadcast = 0;
  int candidate_replies = 0;
};

/// In-network repair of the collection tree, in the spirit of CTP route
/// repair: when a node's parent dies (or the link to it stays dark past the
/// ARQ budget), the orphan broadcasts a repair request, live neighbors with
/// a working route to the root reply, and the orphan re-attaches its whole
/// subtree under the best candidate — without the O(network) cost of a full
/// beaconing round plus query re-execution.
///
/// Loop freedom: a candidate is admitted only if it lies outside the
/// orphan's subtree and every node on its own path to the root is alive
/// with up links. Outside-the-subtree means the candidate's root path
/// cannot pass through the orphan (tree property), so adopting it can
/// never close a cycle — two siblings orphaned by the same crashed parent
/// in particular can never adopt each other, because each other's root
/// paths run through the dead parent and fail the liveness check.
///
/// All repair traffic goes over the simulator as MessageKind::kRepair, so
/// it is charged in the energy model and itemized in CostReport. Like
/// beacons, kRepair is exempt from loss/corruption/outage (see
/// Simulator::LossApplies): repair outcomes are deterministic and a run
/// that never repairs draws zero fault randomness, keeping fault-free
/// executions bit-identical.
///
/// An orphan broadcasts up to kMaxRepairRounds repair requests before
/// giving up; between rounds it waits kRepairRoundWaitS of simulation time,
/// letting scheduled recoveries (reboots, outage ends) change the
/// neighborhood (both constants live in net/tree_maintenance.cc).
///
/// Repair unicasts (candidate replies, re-attach notices) are stamped by
/// the caller's sim::DeliveryGuard before their first send and retracted
/// when the send permanently fails, so they take part in the attempt's
/// exactly-once validation.
///
/// One instance drives repairs against one simulator + tree pair. The tree
/// is mutated in place on success (RoutingTree::Reparent), so executor
/// traversal state keyed by node id stays valid while orders and subtree
/// sizes re-derive.
class TreeMaintenance {
 public:
  /// Extra admission predicate on candidate parents; the join executor uses
  /// it to exclude nodes that already left the protocol (Treecut exits).
  /// An empty function admits every structurally valid candidate.
  using ParentAcceptable = std::function<bool(sim::NodeId)>;

  /// `guard` must outlive the object; null leaves repair unicasts untagged
  /// (exempt from the exactly-once validation).
  TreeMaintenance(sim::Simulator& sim, RoutingTree& tree,
                  sim::DeliveryGuard* guard = nullptr);

  /// Attempts to re-attach `orphan` (and its whole subtree) under a live
  /// neighbor with a working route to the root. Runs up to
  /// kMaxRepairRounds request/reply rounds; every broadcast and reply is
  /// charged as kRepair traffic. Returns true when the orphan was
  /// re-attached (the tree is already updated); false when no admissible
  /// candidate exists, leaving the tree untouched.
  bool Repair(sim::NodeId orphan, const ParentAcceptable& acceptable = {});

  /// In-tree non-root nodes that are alive but cut off from their parent
  /// (parent dead or link down), ascending by id. Orphans nested under a
  /// dead ancestor are reported too — repairing the shallowest first
  /// usually rescues the rest.
  std::vector<sim::NodeId> DetectOrphans() const;

  const RepairStats& stats() const { return stats_; }

 private:
  /// True when every node on `id`'s current path to the root (inclusive) is
  /// alive and every hop's link is up: `id` can actually forward traffic.
  bool HasLiveRootPath(sim::NodeId id) const;

  sim::Simulator& sim_;
  RoutingTree& tree_;
  sim::DeliveryGuard* guard_;
  RepairStats stats_;
};

}  // namespace sensjoin::net

#endif  // SENSJOIN_NET_TREE_MAINTENANCE_H_
