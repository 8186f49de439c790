#include "sensjoin/sim/delivery_guard.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::sim {

namespace {

/// Slots per node: with one stamped link per node — its tree edge to the
/// parent, all a fault-free execution uses — at most half the table is
/// live, so the table never grows.
constexpr size_t kSlotsPerNode = 2;
constexpr size_t kMinSlots = 16;

}  // namespace

DeliveryGuard::DeliveryGuard(int num_nodes) {
  const size_t nodes = static_cast<size_t>(std::max(num_nodes, 0));
  slots_.resize(std::bit_ceil(std::max(kMinSlots, nodes * kSlotsPerNode)));
  shift_ = 64 - static_cast<uint32_t>(std::countr_zero(slots_.size()));
  stamps_.reserve(nodes * 2);
}

void DeliveryGuard::BeginAttempt(uint32_t attempt_id) {
  attempt_id_ = attempt_id;
  if (++generation_ == 0) {
    // The counter wrapped: slots of generation 1 would look live again.
    for (LinkSlot& slot : slots_) slot.generation = 0;
    generation_ = 1;
  }
  live_links_ = 0;
  stamps_.clear();
}

DeliveryGuard::LinkSlot& DeliveryGuard::Probe(uint64_t key) {
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  while (slots_[i].generation == generation_ && slots_[i].key != key) {
    i = (i + 1) & mask;
  }
  return slots_[i];
}

void DeliveryGuard::Grow() {
  std::vector<LinkSlot> old = std::exchange(slots_, {});
  slots_.resize(old.size() * 2);
  --shift_;
  for (const LinkSlot& slot : old) {
    if (slot.generation == generation_) Probe(slot.key) = slot;
  }
}

void DeliveryGuard::Stamp(Message& msg) {
  SENSJOIN_CHECK(msg.dst != kInvalidNode)
      << "only unicasts carry delivery tags";
  const uint64_t key = LinkKey(msg.src, msg.dst);
  LinkSlot* slot = &Probe(key);
  if (slot->generation != generation_) {
    if ((live_links_ + 1) * 2 > slots_.size()) {
      Grow();
      slot = &Probe(key);
    }
    *slot = LinkSlot{key, generation_, kNoStamp};
    ++live_links_;
  }
  const uint32_t seq =
      slot->last == kNoStamp ? 0 : stamps_[slot->last].seq + 1;
  stamps_.push_back(StampRecord{slot->last, seq, StampState::kOutstanding});
  slot->last = static_cast<uint32_t>(stamps_.size() - 1);
  msg.tag.attempt_id = attempt_id_;
  msg.tag.seq = seq;
}

DeliveryGuard::StampRecord* DeliveryGuard::Find(const Message& msg) {
  const LinkSlot& slot = Probe(LinkKey(msg.src, msg.dst));
  if (slot.generation != generation_) return nullptr;
  // A live link holds at least one stamp; its chain runs newest to seq 0.
  uint32_t at = slot.last;
  if (msg.tag.seq > stamps_[at].seq) return nullptr;
  while (stamps_[at].seq != msg.tag.seq) at = stamps_[at].prev;
  return &stamps_[at];
}

void DeliveryGuard::Retract(const Message& msg) {
  if (!msg.tag.tagged() || msg.tag.attempt_id != attempt_id_) return;
  if (StampRecord* stamp = Find(msg)) stamp->state = StampState::kRetracted;
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
  StampRecord* self = Find(msg);
  if (self == nullptr) {
    // A current-attempt tag that was never issued on this link: the medium
    // duplicates and delays, but never fabricates. Callers treat a nonzero
    // phantom count as a protocol bug.
    ++phantoms_;
    return DeliveryVerdict::kPhantom;
  }
  if (self->state != StampState::kOutstanding) {
    ++duplicates_;
    return DeliveryVerdict::kDuplicate;
  }
  self->state = StampState::kDelivered;
  for (uint32_t at = self->prev; at != kNoStamp; at = stamps_[at].prev) {
    if (stamps_[at].state == StampState::kOutstanding) {
      // This arrival overtook an earlier stamped-but-undelivered sequence
      // on the same link (delay jitter): buffer it logically — the phase's
      // contribution state is keyed by sender, so holding it until the gap
      // resolves is a no-op re-ordering, counted for observability.
      ++reordered_;
      return DeliveryVerdict::kReordered;
    }
  }
  return DeliveryVerdict::kFirstDelivery;
}

}  // namespace sensjoin::sim
