#include "sensjoin/sim/delivery_guard.h"

#include <algorithm>

#include "sensjoin/common/logging.h"

namespace sensjoin::sim {

void DeliveryGuard::BeginAttempt(uint32_t attempt_id) {
  attempt_id_ = attempt_id;
  links_.clear();
}

void DeliveryGuard::Stamp(Message& msg) {
  SENSJOIN_CHECK(msg.dst != kInvalidNode)
      << "only unicasts carry delivery tags";
  std::vector<StampState>& stamps = links_[LinkKey(msg.src, msg.dst)];
  msg.tag.attempt_id = attempt_id_;
  msg.tag.seq = static_cast<uint32_t>(stamps.size());
  stamps.push_back(StampState::kOutstanding);
}

void DeliveryGuard::Retract(const Message& msg) {
  if (!msg.tag.tagged() || msg.tag.attempt_id != attempt_id_) return;
  auto it = links_.find(LinkKey(msg.src, msg.dst));
  if (it == links_.end() || msg.tag.seq >= it->second.size()) return;
  it->second[msg.tag.seq] = StampState::kRetracted;
}

DeliveryVerdict DeliveryGuard::Classify(NodeId receiver, const Message& msg) {
  // Broadcast deliveries (msg.dst stays kInvalidNode) and untagged traffic
  // are outside the exactly-once contract: floods suppress duplicates by
  // their own state, beacons and repair requests are idempotent by
  // construction.
  if (msg.dst != receiver || !msg.tag.tagged()) {
    return DeliveryVerdict::kUntagged;
  }
  if (msg.tag.attempt_id != attempt_id_) {
    // Cross-attempt replays and other stragglers of aborted attempts. A
    // *newer* attempt id cannot occur (the guard is bumped before any send
    // of the new attempt), but is treated the same defensively.
    ++stale_drops_;
    return DeliveryVerdict::kStale;
  }
  auto it = links_.find(LinkKey(msg.src, msg.dst));
  if (it == links_.end() || msg.tag.seq >= it->second.size()) {
    // A current-attempt tag that was never issued on this link: the medium
    // duplicates and delays, but never fabricates. Callers treat a nonzero
    // phantom count as a protocol bug.
    ++phantoms_;
    return DeliveryVerdict::kPhantom;
  }
  std::vector<StampState>& stamps = it->second;
  const auto self = stamps.begin() + msg.tag.seq;
  if (*self != StampState::kOutstanding) {
    ++duplicates_;
    return DeliveryVerdict::kDuplicate;
  }
  *self = StampState::kDelivered;
  if (std::find(stamps.begin(), self, StampState::kOutstanding) != self) {
    // This arrival overtook an earlier stamped-but-undelivered sequence on
    // the same link (delay jitter): buffer it logically — the phase's
    // contribution state is keyed by sender, so holding it until the gap
    // resolves is a no-op re-ordering, counted for observability.
    ++reordered_;
    return DeliveryVerdict::kReordered;
  }
  return DeliveryVerdict::kFirstDelivery;
}

}  // namespace sensjoin::sim
