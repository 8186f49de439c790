#ifndef SENSJOIN_JOIN_DELIVERY_GUARD_H_
#define SENSJOIN_JOIN_DELIVERY_GUARD_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "sensjoin/sim/packet.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::join {

/// How the exactly-once layer classified one delivery.
enum class DeliveryVerdict {
  kFirstDelivery,  ///< first arrival of a stamped message: process it
  kReordered,      ///< first arrival, but it overtook an earlier outstanding
                   ///< seq on its link: buffered, logically applied in order
  kDuplicate,      ///< tag already delivered (or evicted from the window):
                   ///< idempotent drop
  kStale,          ///< attempt id older than the current attempt: reject
  kUntagged,       ///< exempt traffic (beacons, floods, broadcasts, legacy
                   ///< senders): pass through
  kPhantom,        ///< tag claims the current attempt but was never stamped
                   ///< on that link — the medium cannot produce this; a
                   ///< non-zero phantom count means a protocol bug
};

/// The sender+receiver half of exactly-once delivery semantics, shared by
/// every join executor through RunAttempts (and, through callbacks,
/// net::TreeMaintenance).
///
/// Senders Stamp every logical unicast with (attempt id, per-(src,dst)-link
/// sequence); the receive path feeds every delivery through Classify, which
/// implements an idempotent dedup window per link: duplicates of an
/// already-delivered tag are dropped, traffic from aborted attempts is
/// rejected as stale, and arrivals that overtook an earlier outstanding
/// sequence number (delay jitter) are recognized as reordered — buffered
/// within the phase instead of dropped, which is sound because a phase only
/// completes once every outstanding tag of the phase has been resolved.
///
/// The guard draws no randomness and adds no wire bytes — stamping alone
/// leaves fault-free runs bit-identical to the seed.
class DeliveryGuard {
 public:
  /// The executors' dedup window: recent sequence numbers remembered per
  /// (src, dst) link; older arrivals are dropped as duplicates.
  static constexpr int kDedupWindow = 64;

  /// `dedup_window` bounds the per-link memory (entries per link).
  explicit DeliveryGuard(int dedup_window = kDedupWindow);

  /// Starts (or restarts) an attempt: bumps the current attempt id and
  /// forgets all link windows — a new attempt re-sends everything under
  /// fresh sequences, and everything still flying from before is stale.
  /// Counters are cumulative across attempts.
  void BeginAttempt(uint32_t attempt_id);
  uint32_t attempt_id() const { return attempt_id_; }

  /// Stamps `msg` with (current attempt, next sequence of the src->dst
  /// link) and registers the tag in the link's window. Call exactly once
  /// per logical message, before the first send; recovery resends of the
  /// same logical message keep the tag (that is what makes them safe).
  void Stamp(sim::Message& msg);

  /// Withdraws the expectation that `msg`'s tag will ever be delivered:
  /// call when a stamped send permanently failed (or the message was
  /// re-routed and freshly stamped for the new link), so the ordering
  /// check never waits on a delivery that cannot come.
  void Retract(const sim::Message& msg);

  /// Classifies the delivery of `msg` at `receiver` and updates the window
  /// state. Only kFirstDelivery / kReordered / kUntagged messages should be
  /// processed by the caller.
  DeliveryVerdict Classify(sim::NodeId receiver, const sim::Message& msg);

  // Cumulative outcome counters (across all attempts of one Execute).
  uint64_t duplicate_deliveries() const { return duplicates_; }
  uint64_t stale_drops() const { return stale_drops_; }
  uint64_t reordered_deliveries() const { return reordered_; }
  uint64_t phantom_deliveries() const { return phantoms_; }

 private:
  struct Entry {
    uint32_t seq = 0;
    bool delivered = false;
  };
  struct LinkState {
    uint32_t next_seq = 0;  ///< next sequence to stamp on this link
    std::deque<Entry> window;
  };

  static uint64_t LinkKey(sim::NodeId src, sim::NodeId dst) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
           static_cast<uint32_t>(dst);
  }

  int dedup_window_;
  uint32_t attempt_id_ = 0;
  std::unordered_map<uint64_t, LinkState> links_;
  uint64_t duplicates_ = 0;
  uint64_t stale_drops_ = 0;
  uint64_t reordered_ = 0;
  uint64_t phantoms_ = 0;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_DELIVERY_GUARD_H_
