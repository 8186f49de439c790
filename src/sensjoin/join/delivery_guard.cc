#include "sensjoin/join/delivery_guard.h"

#include <algorithm>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {

DeliveryGuard::DeliveryGuard(int dedup_window)
    : dedup_window_(std::max(1, dedup_window)) {}

void DeliveryGuard::BeginAttempt(uint32_t attempt_id) {
  attempt_id_ = attempt_id;
  links_.clear();
}

void DeliveryGuard::Stamp(sim::Message& msg) {
  SENSJOIN_CHECK(msg.dst != sim::kInvalidNode)
      << "only unicasts carry delivery tags";
  LinkState& link = links_[LinkKey(msg.src, msg.dst)];
  msg.tag.attempt_id = attempt_id_;
  msg.tag.seq = link.next_seq++;
  link.window.push_back(Entry{msg.tag.seq, false});
  while (link.window.size() > static_cast<size_t>(dedup_window_)) {
    link.window.pop_front();
  }
}

void DeliveryGuard::Retract(const sim::Message& msg) {
  if (!msg.tag.tagged() || msg.tag.attempt_id != attempt_id_) return;
  auto it = links_.find(LinkKey(msg.src, msg.dst));
  if (it == links_.end()) return;
  std::deque<Entry>& window = it->second.window;
  for (auto e = window.begin(); e != window.end(); ++e) {
    if (e->seq == msg.tag.seq) {
      window.erase(e);
      return;
    }
  }
}

DeliveryVerdict DeliveryGuard::Classify(sim::NodeId receiver,
                                        const sim::Message& msg) {
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
  LinkState* link = it == links_.end() ? nullptr : &it->second;
  Entry* entry = nullptr;
  bool earlier_outstanding = false;
  if (link != nullptr) {
    for (Entry& e : link->window) {
      if (e.seq == msg.tag.seq) {
        entry = &e;
        break;
      }
      if (e.seq < msg.tag.seq && !e.delivered) earlier_outstanding = true;
    }
  }
  if (entry == nullptr) {
    if (link != nullptr && msg.tag.seq < link->next_seq) {
      // Stamped once, but evicted from the window (or retracted): the
      // conservative idempotent answer is to drop it as a duplicate.
      ++duplicates_;
      return DeliveryVerdict::kDuplicate;
    }
    // A current-attempt tag that was never issued on this link: the medium
    // duplicates and delays, but never fabricates. Callers treat a nonzero
    // phantom count as a protocol bug.
    ++phantoms_;
    return DeliveryVerdict::kPhantom;
  }
  if (entry->delivered) {
    ++duplicates_;
    return DeliveryVerdict::kDuplicate;
  }
  entry->delivered = true;
  if (earlier_outstanding) {
    // This arrival overtook an earlier stamped-but-undelivered sequence on
    // the same link (delay jitter): buffer it logically — the phase's
    // contribution state is keyed by sender, so holding it until the gap
    // resolves is a no-op re-ordering, counted for observability.
    ++reordered_;
    return DeliveryVerdict::kReordered;
  }
  return DeliveryVerdict::kFirstDelivery;
}

}  // namespace sensjoin::join
