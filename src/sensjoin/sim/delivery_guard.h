#ifndef SENSJOIN_SIM_DELIVERY_GUARD_H_
#define SENSJOIN_SIM_DELIVERY_GUARD_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sensjoin/sim/packet.h"

namespace sensjoin::sim {

/// How the exactly-once layer classified one delivery.
enum class DeliveryVerdict {
  kFirstDelivery,  ///< first arrival of a stamped message: process it
  kReordered,      ///< first arrival, but it overtook an earlier outstanding
                   ///< seq on its link: buffered, logically applied in order
  kDuplicate,      ///< tag already delivered or retracted: idempotent drop
  kStale,          ///< attempt id older than the current attempt: reject
  kUntagged,       ///< exempt traffic (beacons, floods, broadcasts, legacy
                   ///< senders): pass through
  kPhantom,        ///< tag claims the current attempt but was never stamped
                   ///< on that link — the medium cannot produce this; a
                   ///< non-zero phantom count means a protocol bug
};

/// The sender+receiver half of exactly-once delivery semantics for the
/// DeliveryTag on every Message, shared by every join executor through
/// join::RunAttempts and by net::TreeMaintenance's repair unicasts.
///
/// Senders Stamp every logical unicast with (attempt id, per-(src,dst)-link
/// sequence); the receive path feeds every delivery through Classify:
/// duplicates of an already-delivered (or retracted) tag are dropped,
/// traffic from aborted attempts is rejected as stale, and arrivals that
/// overtook an earlier outstanding sequence number (delay jitter) are
/// recognized as reordered — buffered within the phase instead of dropped,
/// which is sound because a phase only completes once every outstanding tag
/// of the phase has been resolved.
///
/// Each link remembers the state of every sequence it stamped in the
/// current attempt, indexed by seq, so a verdict never depends on how many
/// stamps are outstanding. The guard draws no randomness and adds no wire
/// bytes — stamping alone leaves fault-free runs bit-identical to the seed.
class DeliveryGuard {
 public:
  /// Starts (or restarts) an attempt: bumps the current attempt id and
  /// forgets every link's stamps — a new attempt re-sends everything under
  /// fresh sequences, and everything still flying from before is stale.
  /// Counters are cumulative across attempts.
  void BeginAttempt(uint32_t attempt_id);
  uint32_t attempt_id() const { return attempt_id_; }

  /// Stamps `msg` with (current attempt, next sequence of the src->dst
  /// link) and records the stamp as outstanding. Call exactly once per
  /// logical message, before the first send; recovery resends of the same
  /// logical message keep the tag (that is what makes them safe).
  void Stamp(Message& msg);

  /// Withdraws the expectation that `msg`'s tag will ever be delivered:
  /// call when a stamped send permanently failed (or the message was
  /// re-routed and freshly stamped for the new link), so the ordering
  /// check never waits on a delivery that cannot come.
  void Retract(const Message& msg);

  /// Classifies the delivery of `msg` at `receiver` and updates the stamp
  /// state. Only kFirstDelivery / kReordered / kUntagged messages should be
  /// processed by the caller.
  DeliveryVerdict Classify(NodeId receiver, const Message& msg);

  // Cumulative outcome counters (across all attempts of one Execute).
  uint64_t duplicate_deliveries() const { return duplicates_; }
  uint64_t stale_drops() const { return stale_drops_; }
  uint64_t reordered_deliveries() const { return reordered_; }
  uint64_t phantom_deliveries() const { return phantoms_; }

 private:
  enum class StampState : uint8_t { kOutstanding, kDelivered, kRetracted };

  static uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }

  uint32_t attempt_id_ = 0;
  /// Per link, the state of each stamp of the current attempt, by seq.
  std::unordered_map<uint64_t, std::vector<StampState>> links_;
  uint64_t duplicates_ = 0;
  uint64_t stale_drops_ = 0;
  uint64_t reordered_ = 0;
  uint64_t phantoms_ = 0;
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_DELIVERY_GUARD_H_
