#ifndef SENSJOIN_SIM_NODE_H_
#define SENSJOIN_SIM_NODE_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "sensjoin/sim/packet.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::sim {

/// Per-node communication counters. `packets_*` count link-layer
/// transmissions/receptions (the paper's metric); bytes count whole frames
/// (header + payload); energy follows the EnergyModel.
struct NodeStats {
  uint64_t packets_sent = 0;
  uint64_t packets_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  double energy_mj = 0.0;

  /// ARQ bookkeeping. Retransmitted data fragments are included in
  /// `packets_sent` (they are real transmissions) and itemized here;
  /// acknowledgements are header-only frames kept out of `packets_sent`
  /// so the paper's packet metric stays comparable, but their energy is
  /// charged.
  uint64_t packets_retransmitted = 0;
  uint64_t ack_packets_sent = 0;

  /// Fragments that arrived with a damaged payload (whether or not the CRC
  /// trailer caught it). Included in `packets_received`: the radio listened
  /// to the whole frame either way.
  uint64_t corrupted_packets_received = 0;

  /// Fragments this node heard more than once: ARQ retransmissions of an
  /// already-received fragment (the ack was lost) and the fragments of
  /// duplicated logical deliveries (FaultPlan duplication). Included in
  /// `packets_received` — the radio paid for them either way — and
  /// itemized here.
  uint64_t duplicate_packets_received = 0;

  /// Fragments re-heard through cross-attempt replay (in-flight messages of
  /// an aborted attempt re-delivered during the next one). Included in
  /// `packets_received` and itemized here.
  uint64_t replayed_packets_received = 0;

  /// Transmissions broken down by message kind, for per-phase accounting.
  std::array<uint64_t, static_cast<size_t>(MessageKind::kNumKinds)>
      packets_sent_by_kind{};

  void Reset() { *this = NodeStats{}; }
};

/// Network-wide cost counters. The Simulator keeps one as its running
/// totals; the difference of two snapshots is one execution's costs
/// (join::CostReport). `packets_*` count link-layer transmissions (the
/// paper's metric), bytes count whole frames, energy follows the
/// EnergyModel. The scalar fields are listed once, in ForEachLedgerScalar,
/// which the difference and ForEachCounter (and through it every
/// exporter) go through.
struct Ledger {
  /// Transmitted fragments, ARQ retransmissions included, acks excluded.
  uint64_t packets_sent = 0;
  /// Transmitted frame bytes (header + payload + CRC trailers).
  uint64_t bytes_sent = 0;
  /// tx+rx energy of every frame, acks included.
  double energy_mj = 0.0;

  /// ARQ overhead. Retransmitted data fragments are inside packets_sent
  /// and itemized here; ack frames are energy-only (outside the paper's
  /// packet metric), their tx+rx energy inside energy_mj.
  uint64_t retransmitted_packets = 0;
  uint64_t ack_packets = 0;
  double retransmit_energy_mj = 0.0;
  double ack_energy_mj = 0.0;

  /// Integrity-layer overhead. Detected corruptions are fragments the
  /// receiver's CRC rejected (they behave like losses); undetected ones
  /// were accepted with a damaged payload (CRC disabled). Integrity
  /// retransmissions are the ARQ subset whose previous attempt failed the
  /// CRC check; their energy is inside retransmit_energy_mj and itemized
  /// here. CRC trailer bytes are inside bytes_sent and itemized here.
  uint64_t corrupted_packets = 0;
  uint64_t undetected_corrupted_packets = 0;
  uint64_t crc_bytes_sent = 0;
  double integrity_retransmit_energy_mj = 0.0;
  double crc_energy_mj = 0.0;

  /// In-network tree-repair overhead (MessageKind::kRepair traffic, whose
  /// packets are packets(kRepair)): outside the paper's join-packet metric
  /// but inside the byte and energy totals, and itemized here.
  uint64_t repair_bytes_sent = 0;
  double repair_energy_mj = 0.0;

  /// Delivery-fault overhead. Duplicate packets are fragments receivers
  /// heard more than once: ARQ retransmissions whose ack was lost plus the
  /// fragments of duplicated logical deliveries (only the latter carry the
  /// itemized energy). Replayed packets are fragments re-heard when an
  /// aborted attempt's in-flight messages were re-delivered. Both are
  /// inside the rx/energy totals.
  uint64_t duplicate_packets = 0;
  double duplicate_energy_mj = 0.0;
  uint64_t replayed_packets = 0;
  double replay_energy_mj = 0.0;

  /// Transmissions broken down by message kind; sums to packets_sent.
  std::array<uint64_t, static_cast<size_t>(MessageKind::kNumKinds)>
      packets_by_kind{};

  uint64_t packets(MessageKind kind) const {
    return packets_by_kind[static_cast<size_t>(kind)];
  }

  bool operator==(const Ledger&) const = default;

  /// Member-wise `*this - earlier`: the costs accrued since `earlier`.
  Ledger operator-(const Ledger& earlier) const;
};

/// The one list of the ledger's scalar counters: calls
/// `fn(name, &Ledger::field)` for each, in declaration order.
template <typename Fn>
constexpr void ForEachLedgerScalar(Fn&& fn) {
  fn("packets_sent", &Ledger::packets_sent);
  fn("bytes_sent", &Ledger::bytes_sent);
  fn("energy_mj", &Ledger::energy_mj);
  fn("retransmitted_packets", &Ledger::retransmitted_packets);
  fn("ack_packets", &Ledger::ack_packets);
  fn("retransmit_energy_mj", &Ledger::retransmit_energy_mj);
  fn("ack_energy_mj", &Ledger::ack_energy_mj);
  fn("corrupted_packets", &Ledger::corrupted_packets);
  fn("undetected_corrupted_packets", &Ledger::undetected_corrupted_packets);
  fn("crc_bytes_sent", &Ledger::crc_bytes_sent);
  fn("integrity_retransmit_energy_mj",
     &Ledger::integrity_retransmit_energy_mj);
  fn("crc_energy_mj", &Ledger::crc_energy_mj);
  fn("repair_bytes_sent", &Ledger::repair_bytes_sent);
  fn("repair_energy_mj", &Ledger::repair_energy_mj);
  fn("duplicate_packets", &Ledger::duplicate_packets);
  fn("duplicate_energy_mj", &Ledger::duplicate_energy_mj);
  fn("replayed_packets", &Ledger::replayed_packets);
  fn("replay_energy_mj", &Ledger::replay_energy_mj);
}

// Every field is 8 bytes wide, so the ledger has no padding and the sizes
// add up only if no field is missing from the list.
static_assert(
    [] {
      size_t listed = sizeof(Ledger::packets_by_kind);
      ForEachLedgerScalar([&listed](std::string_view, auto field) {
        listed += sizeof(Ledger{}.*field);
      });
      return listed;
    }() == sizeof(Ledger),
    "every Ledger field must be listed in ForEachLedgerScalar");

/// Calls `fn(name, value)` for every counter of `ledger`: each scalar under
/// its field name, then "packets.<kind>" per message kind. `value` keeps
/// the field's type (uint64_t or double).
template <typename Fn>
void ForEachCounter(const Ledger& ledger, Fn&& fn) {
  ForEachLedgerScalar([&](std::string_view name, auto field) {
    fn(name, ledger.*field);
  });
  for (size_t k = 0; k < ledger.packets_by_kind.size(); ++k) {
    const std::string name =
        std::string("packets.") + MessageKindName(static_cast<MessageKind>(k));
    fn(std::string_view(name), ledger.packets_by_kind[k]);
  }
}

inline Ledger Ledger::operator-(const Ledger& earlier) const {
  Ledger delta;
  ForEachLedgerScalar([&](std::string_view, auto field) {
    delta.*field = this->*field - earlier.*field;
  });
  for (size_t k = 0; k < packets_by_kind.size(); ++k) {
    delta.packets_by_kind[k] = packets_by_kind[k] - earlier.packets_by_kind[k];
  }
  return delta;
}

// Network-level per-node state (liveness, stats) is stored
// struct-of-arrays inside the Simulator — see Simulator::alive() /
// Simulator::stats(). Sensor readings live in the data layer.

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_NODE_H_
