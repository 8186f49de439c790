#include "sensjoin/net/tree_maintenance.h"

#include <limits>
#include <utility>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/logging.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::net {
namespace {

/// First wire byte of every repair request; garbage frames (and frames of
/// other protocols misrouted here) fail fast on it.
constexpr uint64_t kRepairMagic = 0xA7;

constexpr uint64_t kNodeSentinel = 0xFFFF;  ///< wire form of kInvalidNode
constexpr uint64_t kHopsSentinel = 0xFF;    ///< wire form of hops == -1

/// Reply payload: the candidate's hop count fits one byte, padded to two
/// for the node id echo (content stays in-memory; only the size is wire).
constexpr size_t kRepairReplyBytes = 2;

/// Repair-request broadcast rounds per orphan, and the simulation time an
/// orphan waits between two of them.
constexpr int kMaxRepairRounds = 2;
constexpr double kRepairRoundWaitS = 0.25;

struct RepairReply {
  sim::NodeId candidate = sim::kInvalidNode;
  int hops = -1;
};

bool TraceOn(const sim::Simulator& sim) {
  return obs::kTracingCompiledIn && sim.tracer() != nullptr &&
         sim.tracer()->enabled();
}

}  // namespace

BitWriter EncodeRepairRequest(const RepairRequest& req) {
  SENSJOIN_CHECK(req.orphan >= 0 && req.orphan < static_cast<int>(kNodeSentinel));
  SENSJOIN_CHECK(req.dead_parent == sim::kInvalidNode ||
                 (req.dead_parent >= 0 &&
                  req.dead_parent < static_cast<int>(kNodeSentinel)));
  SENSJOIN_CHECK(req.old_hops >= -1 &&
                 req.old_hops < static_cast<int>(kHopsSentinel));
  SENSJOIN_CHECK(req.round >= 0 && req.round <= 0xFF);
  BitWriter w;
  w.WriteBits(kRepairMagic, 8);
  w.WriteBits(static_cast<uint64_t>(req.orphan), 16);
  w.WriteBits(req.dead_parent == sim::kInvalidNode
                  ? kNodeSentinel
                  : static_cast<uint64_t>(req.dead_parent),
              16);
  w.WriteBits(req.old_hops < 0 ? kHopsSentinel
                               : static_cast<uint64_t>(req.old_hops),
              8);
  w.WriteBits(static_cast<uint64_t>(req.round), 8);
  SENSJOIN_CHECK_EQ(w.size_bytes(), kRepairRequestBytes);
  return w;
}

Status DecodeRepairRequest(const uint8_t* bytes, size_t size_bits,
                           int num_nodes, RepairRequest* out) {
  if (size_bits != kRepairRequestBytes * 8) {
    return Status::InvalidArgument("repair request: wrong size");
  }
  BitReader r(bytes, size_bits);
  uint64_t magic = 0, orphan = 0, dead_parent = 0, old_hops = 0, round = 0;
  SENSJOIN_RETURN_IF_ERROR(r.TryReadBits(8, &magic));
  if (magic != kRepairMagic) {
    return Status::InvalidArgument("repair request: bad magic");
  }
  SENSJOIN_RETURN_IF_ERROR(r.TryReadBits(16, &orphan));
  SENSJOIN_RETURN_IF_ERROR(r.TryReadBits(16, &dead_parent));
  SENSJOIN_RETURN_IF_ERROR(r.TryReadBits(8, &old_hops));
  SENSJOIN_RETURN_IF_ERROR(r.TryReadBits(8, &round));
  if (orphan == kNodeSentinel) {
    return Status::InvalidArgument("repair request: orphan id is sentinel");
  }
  if (orphan == dead_parent) {
    return Status::InvalidArgument("repair request: orphan is its own parent");
  }
  if (num_nodes > 0) {
    if (orphan >= static_cast<uint64_t>(num_nodes)) {
      return Status::OutOfRange("repair request: orphan id out of range");
    }
    if (dead_parent != kNodeSentinel &&
        dead_parent >= static_cast<uint64_t>(num_nodes)) {
      return Status::OutOfRange("repair request: parent id out of range");
    }
    if (old_hops != kHopsSentinel &&
        old_hops >= static_cast<uint64_t>(num_nodes)) {
      return Status::OutOfRange("repair request: hop count out of range");
    }
  }
  out->orphan = static_cast<sim::NodeId>(orphan);
  out->dead_parent = dead_parent == kNodeSentinel
                         ? sim::kInvalidNode
                         : static_cast<sim::NodeId>(dead_parent);
  out->old_hops =
      old_hops == kHopsSentinel ? -1 : static_cast<int>(old_hops);
  out->round = static_cast<int>(round);
  return Status::Ok();
}

TreeMaintenance::TreeMaintenance(sim::Simulator& sim, RoutingTree& tree,
                                 sim::DeliveryGuard* guard)
    : sim_(sim), tree_(tree), guard_(guard) {}

bool TreeMaintenance::HasLiveRootPath(sim::NodeId id) const {
  if (!tree_.InTree(id)) return false;
  for (sim::NodeId u = id; u != tree_.root();) {
    if (!sim_.alive(u)) return false;
    const sim::NodeId p = tree_.parent(u);
    if (p == sim::kInvalidNode) return false;
    // An active outage window passes repair traffic but blocks the join
    // traffic the orphan needs forwarded, so it disqualifies the path too.
    if (!sim_.radio().LinkUp(u, p) || sim_.radio().OutageActive(u, p)) {
      return false;
    }
    u = p;
  }
  return sim_.alive(tree_.root());
}

std::vector<sim::NodeId> TreeMaintenance::DetectOrphans() const {
  std::vector<sim::NodeId> orphans;
  for (sim::NodeId u = 0; u < sim_.num_nodes(); ++u) {
    if (u == tree_.root() || !tree_.InTree(u)) continue;
    if (!sim_.alive(u)) continue;
    const sim::NodeId p = tree_.parent(u);
    if (p == sim::kInvalidNode) continue;
    if (!sim_.alive(p) || !sim_.radio().LinkUp(u, p) ||
        sim_.radio().OutageActive(u, p)) {
      orphans.push_back(u);
    }
  }
  return orphans;
}

bool TreeMaintenance::Repair(sim::NodeId orphan,
                             const ParentAcceptable& acceptable) {
  SENSJOIN_CHECK(orphan >= 0 && orphan < sim_.num_nodes());
  SENSJOIN_CHECK(orphan != tree_.root()) << "the root cannot be an orphan";
  if (!sim_.alive(orphan) || !tree_.InTree(orphan)) return false;

  obs::ScopedPhase span(sim_.tracer(), sim_.events(), obs::Phase::kTreeRepair);
  ++stats_.orphans_detected;
  if (TraceOn(sim_)) {
    sim_.tracer()->Record(obs::EventKind::kOrphanDetected, sim_.now(), orphan,
                          tree_.parent(orphan), sim::MessageKind::kRepair,
                          /*count=*/0, /*bytes=*/0, /*energy_mj=*/0.0);
  }

  const int n = sim_.num_nodes();
  std::vector<char> in_subtree(n, 0);
  for (sim::NodeId u : tree_.SubtreeNodes(orphan)) in_subtree[u] = 1;

  for (int round = 0; round < kMaxRepairRounds; ++round) {
    // Later rounds wait for scheduled topology changes (reboots, outage
    // ends) to open new candidates before asking again.
    if (round > 0) sim_.events().RunUntil(sim_.now() + kRepairRoundWaitS);

    RepairRequest req;
    req.orphan = orphan;
    req.dead_parent = tree_.parent(orphan);
    req.old_hops = tree_.hop_count(orphan);
    req.round = round;
    const BitWriter wire = EncodeRepairRequest(req);

    sim::Message msg;
    msg.src = orphan;
    msg.kind = sim::MessageKind::kRepair;
    msg.payload_bytes = wire.size_bytes();
    msg.content = wire;
    std::vector<sim::NodeId> delivered;
    sim_.Broadcast(std::move(msg), &delivered);
    ++stats_.requests_broadcast;
    if (TraceOn(sim_)) {
      sim_.tracer()->Record(obs::EventKind::kRepairRequest, sim_.now(), orphan,
                            req.dead_parent, sim::MessageKind::kRepair,
                            /*count=*/1, wire.size_bytes(), /*energy_mj=*/0.0,
                            /*detail=*/static_cast<uint32_t>(round));
    }

    // Each receiver runs the hardened decode path of the beacon it heard,
    // then replies if it can actually serve as a parent.
    sim::NodeId best = sim::kInvalidNode;
    int best_hops = std::numeric_limits<int>::max();
    double best_dist = std::numeric_limits<double>::max();
    for (sim::NodeId nb : delivered) {
      RepairRequest heard;
      if (!DecodeRepairRequest(wire.bytes().data(), wire.size_bits(), n,
                               &heard)
               .ok()) {
        continue;
      }
      if (in_subtree[nb]) continue;  // would close a routing loop
      if (!HasLiveRootPath(nb)) continue;
      if (acceptable && !acceptable(nb)) continue;

      sim::Message reply;
      reply.src = nb;
      reply.dst = orphan;
      reply.kind = sim::MessageKind::kRepair;
      reply.payload_bytes = kRepairReplyBytes;
      reply.content = RepairReply{nb, tree_.hop_count(nb)};
      if (guard_ != nullptr) guard_->Stamp(reply);
      if (!sim_.SendUnicast(reply)) {
        if (guard_ != nullptr) guard_->Retract(reply);
        continue;
      }
      ++stats_.candidate_replies;

      const double dist = Distance(sim_.radio().position(orphan),
                                   sim_.radio().position(nb));
      const int hops = tree_.hop_count(nb);
      const bool better =
          hops < best_hops ||
          (hops == best_hops &&
           (dist < best_dist || (dist == best_dist && nb < best)));
      if (better) {
        best = nb;
        best_hops = hops;
        best_dist = dist;
      }
    }

    if (best != sim::kInvalidNode) {
      // Re-attach notice so the new parent learns its child (charged like
      // the rest of the repair traffic).
      sim::Message notice;
      notice.src = orphan;
      notice.dst = best;
      notice.kind = sim::MessageKind::kRepair;
      notice.payload_bytes = kRepairRequestBytes;
      notice.content = req;
      if (guard_ != nullptr) guard_->Stamp(notice);
      if (!sim_.SendUnicast(notice)) {
        if (guard_ != nullptr) guard_->Retract(notice);
      }

      tree_.Reparent(orphan, best);
      ++stats_.repairs_succeeded;
      if (TraceOn(sim_)) {
        sim_.tracer()->Record(
            obs::EventKind::kReattach, sim_.now(), orphan, best,
            sim::MessageKind::kRepair, /*count=*/1, /*bytes=*/0,
            /*energy_mj=*/0.0,
            /*detail=*/static_cast<uint32_t>(tree_.hop_count(orphan)));
      }
      return true;
    }
  }

  ++stats_.repairs_failed;
  return false;
}

}  // namespace sensjoin::net
