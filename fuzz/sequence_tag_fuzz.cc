// Fuzzes the exactly-once DeliveryGuard with an arbitrary operation stream:
// attempt bumps, stamps, retracts and deliveries — including forged tags
// the stamping side never issued (arbitrary attempt ids and sequence
// numbers), stragglers of earlier attempts and replays of real stamps into
// wrong receivers. Node ids take two bytes, so the guard's link table grows
// and its probes collide. Every tag, verdict and counter must equal the
// reference model's (tests/delivery_guard_reference.h).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "../tests/delivery_guard_reference.h"
#include "sensjoin/sim/delivery_guard.h"
#include "sensjoin/sim/packet.h"

namespace {

using sensjoin::sim::DeliveryGuard;
using sensjoin::sim::Message;
using sensjoin::sim::NodeId;
using sensjoin::sim::ReferenceGuard;

/// Byte-stream reader; returns 0 past the end so every input terminates.
struct Reader {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;

  uint8_t Next() { return pos < size ? data[pos++] : 0; }
  NodeId NextNode() {
    const NodeId low = Next();
    return low | static_cast<NodeId>(Next()) << 8;
  }
  bool Done() const { return pos >= size; }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size == 0) return 0;
  Reader in{data, size};

  DeliveryGuard guard;
  ReferenceGuard reference;
  guard.BeginAttempt(0);
  reference.BeginAttempt(0);
  std::vector<Message> stamped;  // of every attempt so far

  auto classify = [&](NodeId receiver, const Message& msg) {
    if (guard.Classify(receiver, msg) != reference.Classify(receiver, msg) ||
        CountersOf(guard) != reference.counters) {
      __builtin_trap();
    }
  };

  while (!in.Done()) {
    const uint8_t op = in.Next();
    switch (op % 5) {
      case 0: {  // new attempt (maybe under the same id)
        const uint32_t id = guard.attempt_id() + (op >> 4);
        guard.BeginAttempt(id);
        reference.BeginAttempt(id);
        break;
      }
      case 1: {  // stamp a fresh message
        Message msg;
        msg.src = in.NextNode();
        msg.dst = in.NextNode();
        const sensjoin::sim::DeliveryTag expected = reference.Stamp(msg);
        guard.Stamp(msg);
        if (msg.tag.attempt_id != expected.attempt_id ||
            msg.tag.seq != expected.seq) {
          __builtin_trap();
        }
        if (stamped.size() < 4096) stamped.push_back(msg);
        break;
      }
      case 2: {  // retract a previously stamped message (maybe twice)
        if (stamped.empty()) break;
        const Message& msg = stamped[in.NextNode() % stamped.size()];
        guard.Retract(msg);
        reference.Retract(msg);
        break;
      }
      case 3: {  // deliver a stamped message, maybe repeatedly or misrouted
        if (stamped.empty()) break;
        const Message& msg = stamped[in.NextNode() % stamped.size()];
        classify((op & 0x80) ? in.NextNode() : msg.dst, msg);
        break;
      }
      case 4: {  // forge a tag, on a stamped link or an arbitrary one
        const uint8_t forge = in.Next();
        Message msg;
        if ((forge & 4) && !stamped.empty()) {
          const Message& real = stamped[in.NextNode() % stamped.size()];
          msg.src = real.src;
          msg.dst = real.dst;
        } else {
          msg.src = in.NextNode();
          msg.dst = in.NextNode();
        }
        msg.tag.attempt_id =
            (forge & 1) ? guard.attempt_id() : static_cast<uint32_t>(forge);
        msg.tag.seq = static_cast<uint32_t>(in.Next()) |
                      (static_cast<uint32_t>(forge & 0xF0) << 8);
        classify((forge & 2) ? msg.dst : in.NextNode(), msg);
        break;
      }
    }
  }
  return 0;
}
