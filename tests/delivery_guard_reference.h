// The exactly-once guard's rules restated over the simplest storage, as a
// reference model for sim::DeliveryGuard: the differential test in
// delivery_semantics_test and fuzz/sequence_tag_fuzz check every tag,
// verdict and counter of the guard against it.

#ifndef SENSJOIN_TESTS_DELIVERY_GUARD_REFERENCE_H_
#define SENSJOIN_TESTS_DELIVERY_GUARD_REFERENCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/sim/packet.h"

namespace sensjoin::sim {

/// The guard's rules restated over the simplest storage: per attempt, a
/// map from (src, dst) link to the state of each stamp, indexed by seq.
class ReferenceGuard {
 public:
  void BeginAttempt(uint32_t attempt_id) {
    attempt_id_ = attempt_id;
    links_.clear();
  }

  DeliveryTag Stamp(const Message& msg) {
    std::vector<State>& stamps = links_[{msg.src, msg.dst}];
    stamps.push_back(State::kOutstanding);
    return {attempt_id_, static_cast<uint32_t>(stamps.size() - 1)};
  }

  void Retract(const Message& msg) {
    if (!msg.tag.tagged() || msg.tag.attempt_id != attempt_id_) return;
    auto it = links_.find({msg.src, msg.dst});
    if (it == links_.end() || msg.tag.seq >= it->second.size()) return;
    it->second[msg.tag.seq] = State::kRetracted;
  }

  DeliveryVerdict Classify(NodeId receiver, const Message& msg) {
    if (msg.dst != receiver || !msg.tag.tagged()) {
      return DeliveryVerdict::kUntagged;
    }
    if (msg.tag.attempt_id != attempt_id_) {
      ++counters[1];
      return DeliveryVerdict::kStale;
    }
    auto it = links_.find({msg.src, msg.dst});
    if (it == links_.end() || msg.tag.seq >= it->second.size()) {
      ++counters[3];
      return DeliveryVerdict::kPhantom;
    }
    std::vector<State>& stamps = it->second;
    if (stamps[msg.tag.seq] != State::kOutstanding) {
      ++counters[0];
      return DeliveryVerdict::kDuplicate;
    }
    stamps[msg.tag.seq] = State::kDelivered;
    for (uint32_t seq = 0; seq < msg.tag.seq; ++seq) {
      if (stamps[seq] == State::kOutstanding) {
        ++counters[2];
        return DeliveryVerdict::kReordered;
      }
    }
    return DeliveryVerdict::kFirstDelivery;
  }

  size_t num_links() const { return links_.size(); }

  /// Duplicates, stale drops, reorderings, phantoms.
  std::array<uint64_t, 4> counters{};

 private:
  enum class State { kOutstanding, kDelivered, kRetracted };
  uint32_t attempt_id_ = 0;
  std::map<std::pair<NodeId, NodeId>, std::vector<State>> links_;
};

/// The guard's counters, in the order of ReferenceGuard::counters.
inline std::array<uint64_t, 4> CountersOf(const DeliveryGuard& guard) {
  return {guard.duplicate_deliveries(), guard.stale_drops(),
          guard.reordered_deliveries(), guard.phantom_deliveries()};
}

}  // namespace sensjoin::sim

#endif  // SENSJOIN_TESTS_DELIVERY_GUARD_REFERENCE_H_
