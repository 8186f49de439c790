// Fuzzes the exactly-once DeliveryGuard with an arbitrary operation stream:
// attempt bumps, stamps, retracts and deliveries — including forged tags
// the stamping side never issued (arbitrary attempt ids and sequence
// numbers) and replays of real stamps into wrong receivers. The guard must
// never crash, hang or mis-count: verdict counters stay consistent with the
// verdicts returned, and a real current-attempt stamp never classifies as
// phantom or untagged.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/sim/packet.h"

namespace {

using sensjoin::sim::DeliveryGuard;
using sensjoin::sim::DeliveryVerdict;

/// Byte-stream reader; returns 0 past the end so every input terminates.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  uint8_t Next() { return pos < size ? data[pos++] : 0; }
  bool Done() const { return pos >= size; }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  Reader in{data, size};

  DeliveryGuard guard;
  guard.BeginAttempt(0);

  constexpr int kNodes = 4;
  std::vector<sensjoin::sim::Message> stamped;
  uint64_t expected_duplicates = 0;
  uint64_t expected_stale = 0;
  uint64_t expected_reordered = 0;
  uint64_t expected_phantoms = 0;

  while (!in.Done()) {
    const uint8_t op = in.Next();
    switch (op % 5) {
      case 0: {  // new attempt: everything stamped so far becomes stale
        guard.BeginAttempt(guard.attempt_id() + 1 + (op >> 4));
        stamped.clear();
        break;
      }
      case 1: {  // stamp a fresh message on a small link space
        sensjoin::sim::Message msg;
        msg.src = in.Next() % kNodes;
        msg.dst = in.Next() % kNodes;
        msg.payload_bytes = in.Next();
        guard.Stamp(msg);
        if (stamped.size() < 256) stamped.push_back(msg);
        break;
      }
      case 2: {  // retract a previously stamped message (maybe twice)
        if (!stamped.empty()) {
          guard.Retract(stamped[in.Next() % stamped.size()]);
        }
        break;
      }
      case 3: {  // deliver a previously stamped message, maybe repeatedly
        if (stamped.empty()) break;
        const sensjoin::sim::Message& msg =
            stamped[in.Next() % stamped.size()];
        const DeliveryVerdict verdict = guard.Classify(msg.dst, msg);
        switch (verdict) {
          case DeliveryVerdict::kDuplicate:
            ++expected_duplicates;
            break;
          case DeliveryVerdict::kStale:
            ++expected_stale;
            break;
          case DeliveryVerdict::kReordered:
            ++expected_reordered;
            break;
          case DeliveryVerdict::kPhantom:
            // Every stamp of the current attempt (`stamped` is cleared on
            // each bump) stays known to its link, retracted or not.
          case DeliveryVerdict::kUntagged:
            // Real stamps are never untagged.
            __builtin_trap();
          case DeliveryVerdict::kFirstDelivery:
            break;
        }
        break;
      }
      case 4: {  // forge a tag the stamping side never issued
        sensjoin::sim::Message msg;
        msg.src = in.Next() % kNodes;
        msg.dst = in.Next() % kNodes;
        const uint8_t forge = in.Next();
        msg.tag.attempt_id =
            (forge & 1) ? guard.attempt_id() : static_cast<uint32_t>(forge);
        msg.tag.seq = static_cast<uint32_t>(in.Next()) |
                      (static_cast<uint32_t>(forge & 0xF0) << 8);
        const sensjoin::sim::NodeId receiver =
            (forge & 2) ? msg.dst : in.Next() % kNodes;
        // A forged tag may collide with a genuinely stamped sequence —
        // indistinguishable from a real delivery by design — so any
        // verdict is acceptable here; the guard just must not crash.
        const DeliveryVerdict verdict = guard.Classify(receiver, msg);
        switch (verdict) {
          case DeliveryVerdict::kDuplicate:
            ++expected_duplicates;
            break;
          case DeliveryVerdict::kStale:
            ++expected_stale;
            break;
          case DeliveryVerdict::kReordered:
            ++expected_reordered;
            break;
          case DeliveryVerdict::kPhantom:
            ++expected_phantoms;
            break;
          default:
            break;
        }
        break;
      }
    }
  }

  // Counter consistency: the guard's cumulative counters must equal the
  // verdicts it returned.
  if (guard.duplicate_deliveries() != expected_duplicates ||
      guard.stale_drops() != expected_stale ||
      guard.reordered_deliveries() != expected_reordered ||
      guard.phantom_deliveries() != expected_phantoms) {
    __builtin_trap();
  }
  return 0;
}
