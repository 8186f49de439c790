#include "sensjoin/sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::sim {
namespace {

/// One test per instrumentation site; folds to `false` (and the recording
/// block to nothing) when built with SENSJOIN_TRACING=0.
inline bool Tracing(const obs::Tracer* tracer) {
  return obs::kTracingCompiledIn && tracer != nullptr && tracer->enabled();
}

/// ARQ backoff: the wait before retransmission `a` (1-based) is
/// kArqBackoffBaseS * kArqBackoffFactor^(a - 1) (exponential backoff).
constexpr double kArqBackoffBaseS = 0.008;
constexpr double kArqBackoffFactor = 2.0;

/// Wire size of an acknowledgement frame (header-only packet).
constexpr int kAckBytes = 8;

/// Wire size of the per-fragment CRC-16 trailer.
constexpr int kCrcBytes = 2;

/// Fraction of undetected corruption events that truncate the payload
/// instead of flipping bits (radios lose frame tails on late symbol-sync
/// errors).
constexpr double kTruncationFraction = 0.25;

/// Upper bound of the seeded extra delay before a duplicate delivery: the
/// duplicate arrives one message airtime plus a uniform draw from
/// [0, kDuplicationDelayS] after the original.
constexpr double kDuplicationDelayS = 0.012;

/// Spacing of the re-deliveries ReleaseReplays schedules.
constexpr double kReplayStaggerS = 0.002;

}  // namespace

Simulator::Simulator(Radio radio, PacketizationParams packets,
                     EnergyModel energy)
    : radio_(std::move(radio)),
      packet_params_(packets),
      energy_model_(energy) {
  alive_.assign(radio_.num_nodes(), 1);
  stats_.resize(radio_.num_nodes());
}

Simulator::ReceiveHandler Simulator::SetReceiveHandler(
    ReceiveHandler handler) {
  ReceiveHandler old = std::move(receive_handler_);
  receive_handler_ = std::move(handler);
  return old;
}

Simulator::TraceSink Simulator::SetTraceSink(TraceSink sink) {
  TraceSink old = std::move(trace_sink_);
  trace_sink_ = std::move(sink);
  return old;
}

// --- Accounting ------------------------------------------------------------

double Simulator::AccountTx(NodeId sender, MessageKind kind, int fragments,
                            size_t frame_bytes) {
  NodeStats& s = stats_[sender];
  s.packets_sent += fragments;
  s.bytes_sent += frame_bytes;
  s.packets_sent_by_kind[static_cast<size_t>(kind)] += fragments;
  const double cost = energy_model_.TxCost(fragments, frame_bytes);
  s.energy_mj += cost;
  totals_.packets_sent += fragments;
  totals_.bytes_sent += frame_bytes;
  totals_.energy_mj += cost;
  totals_.packets_by_kind[static_cast<size_t>(kind)] += fragments;
  if (kind == MessageKind::kRepair) {
    totals_.repair_bytes_sent += frame_bytes;
    totals_.repair_energy_mj += cost;
  }
  return cost;
}

double Simulator::AccountRx(NodeId receiver, MessageKind kind, int fragments,
                            size_t frame_bytes) {
  NodeStats& s = stats_[receiver];
  s.packets_received += fragments;
  s.bytes_received += frame_bytes;
  const double cost = energy_model_.RxCost(fragments, frame_bytes);
  s.energy_mj += cost;
  totals_.energy_mj += cost;
  if (kind == MessageKind::kRepair) totals_.repair_energy_mj += cost;
  return cost;
}

void Simulator::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer == nullptr) {
    radio_.set_link_observer(nullptr);
    return;
  }
  radio_.set_link_observer([this](NodeId a, NodeId b, bool up) {
    if (!Tracing(tracer_)) return;
    tracer_->Record(up ? obs::EventKind::kLinkUp : obs::EventKind::kLinkDown,
                    events_.now(), a, b, MessageKind::kNumKinds, /*count=*/1,
                    /*bytes=*/0, /*energy_mj=*/0.0);
  });
}

bool Simulator::SendUnicast(Message msg, bool* corrupted) {
  SENSJOIN_CHECK(msg.src >= 0 && msg.src < num_nodes());
  SENSJOIN_CHECK(msg.dst >= 0 && msg.dst < num_nodes());
  if (corrupted) *corrupted = false;
  if (!alive(msg.src)) return false;
  const int fragments = NumFragments(msg.payload_bytes, packet_params_);
  const bool crc_active =
      integrity_params_.crc_enabled && LossApplies(msg.kind);
  const size_t trailer_bytes =
      crc_active ? static_cast<size_t>(fragments) * kCrcBytes : 0;
  const size_t frame_bytes =
      msg.payload_bytes +
      static_cast<size_t>(fragments) * packet_params_.header_bytes +
      trailer_bytes;
  const size_t avg_frame_bytes = frame_bytes / fragments;
  const bool link_ok =
      alive(msg.dst) && radio_.LinkUp(msg.src, msg.dst) &&
      !(LossApplies(msg.kind) && radio_.OutageActive(msg.src, msg.dst));
  const LinkRates rates =
      LossApplies(msg.kind) ? radio_.Rates(msg.src, msg.dst) : LinkRates{};
  const double loss = rates.loss;
  const double corrupt = rates.corruption;

  // Per-fragment link-layer simulation: one initial attempt and, with ARQ
  // enabled, up to max_retransmissions more with exponential backoff. An
  // ack can be lost like any frame; the sender then retransmits and the
  // receiver sees (and pays for) a duplicate. Corruption is rolled only for
  // fragments that physically arrive: with the CRC trailer the receiver
  // detects the damage, drops the frame and sends no ack (to the sender
  // this attempt is exactly a loss); without it the damaged frame is
  // accepted and acked.
  const int attempts_allowed =
      1 + (arq_params_.enabled ? arq_params_.max_retransmissions : 0);
  int tx_fragments = 0;
  int rx_fragments = 0;
  int retransmissions = 0;
  int integrity_retransmissions = 0;
  int detected_fragments = 0;
  int undetected_fragments = 0;
  int arq_duplicate_fragments = 0;
  int acks = 0;
  double backoff_s = 0.0;
  bool delivered = true;
  bool payload_corrupted = false;
  for (int f = 0; f < fragments; ++f) {
    bool got = false;
    bool prev_crc_reject = false;
    for (int a = 0; a < attempts_allowed; ++a) {
      ++tx_fragments;
      if (a > 0) {
        ++retransmissions;
        if (prev_crc_reject) ++integrity_retransmissions;
        backoff_s += kArqBackoffBaseS * std::pow(kArqBackoffFactor, a - 1);
      }
      prev_crc_reject = false;
      const bool frag_arrives =
          link_ok && !(loss > 0.0 && fault_rng_.NextBool(loss));
      if (frag_arrives) ++rx_fragments;  // the receiver heard the frame
      const bool frag_corrupt =
          frag_arrives && corrupt > 0.0 && fault_rng_.NextBool(corrupt);
      if (frag_corrupt) {
        ++stats_[msg.dst].corrupted_packets_received;
        if (crc_active) {
          ++detected_fragments;
          prev_crc_reject = true;
          if (!arq_params_.enabled) break;
          continue;  // dropped by the receiver; retry like a loss
        }
        ++undetected_fragments;
        payload_corrupted = true;
      }
      if (frag_arrives) {
        // An arrival of a fragment the receiver had already accepted means
        // the previous ack was lost and the retransmission raced it: the
        // receiver pays for a duplicate (itemized below).
        if (got) ++arq_duplicate_fragments;
        got = true;
      }
      if (!arq_params_.enabled) break;
      if (frag_arrives) {
        ++acks;
        const bool ack_arrives = !(loss > 0.0 && fault_rng_.NextBool(loss));
        if (ack_arrives) break;
      }
    }
    if (!got) delivered = false;
  }

  const size_t extra_bytes =
      static_cast<size_t>(tx_fragments - fragments) * avg_frame_bytes;
  const double tx_cost =
      AccountTx(msg.src, msg.kind, tx_fragments, frame_bytes + extra_bytes);
  if (retransmissions > 0) {
    stats_[msg.src].packets_retransmitted += retransmissions;
    totals_.retransmitted_packets += retransmissions;
    totals_.retransmit_energy_mj +=
        energy_model_.TxCost(retransmissions, extra_bytes);
  }
  if (integrity_retransmissions > 0) {
    totals_.integrity_retransmit_energy_mj += energy_model_.TxCost(
        integrity_retransmissions,
        static_cast<size_t>(integrity_retransmissions) * avg_frame_bytes);
  }
  totals_.corrupted_packets += detected_fragments;
  totals_.undetected_corrupted_packets += undetected_fragments;
  if (arq_duplicate_fragments > 0) {
    // Already charged through rx_fragments; surfaced here so the cost
    // reports can itemize what the lost acks cost the receiver.
    stats_[msg.dst].duplicate_packets_received += arq_duplicate_fragments;
    totals_.duplicate_packets += arq_duplicate_fragments;
  }
  if (crc_active) {
    const size_t tx_crc = static_cast<size_t>(tx_fragments) * kCrcBytes;
    const size_t rx_crc = static_cast<size_t>(rx_fragments) * kCrcBytes;
    totals_.crc_bytes_sent += tx_crc;
    totals_.crc_energy_mj +=
        energy_model_.TxCost(0, tx_crc) + energy_model_.RxCost(0, rx_crc);
  }
  size_t ack_bytes = 0;
  double ack_tx = 0.0;
  double ack_rx = 0.0;
  if (acks > 0) {
    // Acks travel receiver -> sender; header-only frames, kept out of the
    // packet metric but charged in full (tx at the receiver, rx at the
    // sender).
    ack_bytes = static_cast<size_t>(acks) * kAckBytes;
    ack_tx = energy_model_.TxCost(acks, ack_bytes);
    ack_rx = energy_model_.RxCost(acks, ack_bytes);
    stats_[msg.dst].ack_packets_sent += acks;
    stats_[msg.dst].energy_mj += ack_tx;
    stats_[msg.src].energy_mj += ack_rx;
    totals_.ack_packets += acks;
    totals_.energy_mj += ack_tx + ack_rx;
    totals_.ack_energy_mj += ack_tx + ack_rx;
  }
  size_t rx_bytes = 0;
  double rx_cost = 0.0;
  if (rx_fragments > 0) {
    rx_bytes = rx_fragments == fragments
                   ? frame_bytes
                   : static_cast<size_t>(rx_fragments) * avg_frame_bytes;
    rx_cost = AccountRx(msg.dst, msg.kind, rx_fragments, rx_bytes);
  }
  if (Tracing(tracer_)) {
    using obs::EventKind;
    const SimTime now = events_.now();
    // kFragTx carries the sender's whole tx debit (incl. retransmissions
    // and CRC trailers); ack and rx events carry theirs. Itemization events
    // (retransmit, loss, corrupt, drop) carry no energy — summing every
    // event's energy reproduces the simulator's total exactly once.
    tracer_->Record(EventKind::kFragTx, now, msg.src, msg.dst, msg.kind,
                    static_cast<uint32_t>(tx_fragments),
                    frame_bytes + extra_bytes, tx_cost);
    if (retransmissions > 0) {
      tracer_->Record(EventKind::kRetransmit, now, msg.src, msg.dst, msg.kind,
                      static_cast<uint32_t>(retransmissions), extra_bytes, 0.0,
                      static_cast<uint32_t>(integrity_retransmissions));
    }
    if (tx_fragments > rx_fragments) {
      tracer_->Record(EventKind::kFragLoss, now, msg.dst, msg.src, msg.kind,
                      static_cast<uint32_t>(tx_fragments - rx_fragments), 0,
                      0.0);
    }
    if (detected_fragments + undetected_fragments > 0) {
      tracer_->Record(EventKind::kFragCorrupt, now, msg.dst, msg.src, msg.kind,
                      static_cast<uint32_t>(detected_fragments +
                                            undetected_fragments),
                      0, 0.0, static_cast<uint32_t>(detected_fragments));
    }
    if (acks > 0) {
      tracer_->Record(EventKind::kAckTx, now, msg.dst, msg.src, msg.kind,
                      static_cast<uint32_t>(acks), ack_bytes, ack_tx);
      tracer_->Record(EventKind::kAckRx, now, msg.src, msg.dst, msg.kind,
                      static_cast<uint32_t>(acks), ack_bytes, ack_rx);
    }
    if (rx_fragments > 0) {
      tracer_->Record(EventKind::kFragRx, now, msg.dst, msg.src, msg.kind,
                      static_cast<uint32_t>(rx_fragments), rx_bytes, rx_cost);
    }
    if (arq_duplicate_fragments > 0) {
      // Ack-lost duplicates: already paid inside kFragRx, so this record
      // carries no energy (detail == 0 marks the ARQ flavor).
      tracer_->Record(EventKind::kDuplicateRx, now, msg.dst, msg.src,
                      msg.kind,
                      static_cast<uint32_t>(arq_duplicate_fragments), 0, 0.0,
                      /*detail=*/0);
    }
    if (!delivered) {
      tracer_->Record(EventKind::kMessageDrop, now, msg.src, msg.dst,
                      msg.kind, static_cast<uint32_t>(fragments),
                      msg.payload_bytes, 0.0);
    }
    tracer_->ObserveMessage(msg.payload_bytes, fragments);
    if (arq_params_.enabled) tracer_->ObserveRetransmits(retransmissions);
  }
  if (trace_sink_) {
    trace_sink_(TraceRecord{events_.now(), msg.src, msg.dst, msg.kind,
                            fragments, msg.payload_bytes,
                            /*broadcast=*/false, delivered, retransmissions,
                            detected_fragments + undetected_fragments});
  }
  if (!delivered) return false;
  if (corrupted) *corrupted = payload_corrupted;
  const SimTime delay = tx_fragments * per_packet_latency_s_ + backoff_s;

  // Duplication and jitter rolls come strictly after the per-fragment
  // loss/corruption/ack rolls above, and only for non-zero rates, so fault
  // plans without the new axes consume exactly the seed's RNG stream.
  const bool duplicated =
      rates.duplication > 0.0 && fault_rng_.NextBool(rates.duplication);
  SimTime dup_extra_s = 0.0;
  if (duplicated) {
    dup_extra_s = fragments * per_packet_latency_s_ +
                  fault_rng_.UniformDouble(0.0, kDuplicationDelayS);
  }
  SimTime jitter_s = 0.0;
  if (delay_params_.enabled() && LossApplies(msg.kind)) {
    jitter_s = fault_rng_.UniformDouble(0.0, delay_params_.max_jitter_s);
  }
  if (duplicated) {
    // The receiver hears — and the delivery path processes — the whole
    // message a second time. The rx side is charged and itemized; the tx
    // side was already paid by the retransmission that raced its ack.
    const double dup_rx_cost =
        AccountRx(msg.dst, msg.kind, fragments, frame_bytes);
    stats_[msg.dst].duplicate_packets_received += fragments;
    totals_.duplicate_packets += fragments;
    totals_.duplicate_energy_mj += dup_rx_cost;
    if (Tracing(tracer_)) {
      tracer_->Record(obs::EventKind::kDuplicateRx, events_.now(), msg.dst,
                      msg.src, msg.kind, static_cast<uint32_t>(fragments),
                      frame_bytes, dup_rx_cost, /*detail=*/1);
    }
  }
  if (Tracing(tracer_)) tracer_->ObserveHopLatency(delay + jitter_s);
  Message dup_msg;
  if (duplicated) dup_msg = msg;  // copy before the original moves away
  ScheduleDelivery(std::move(msg), delay + jitter_s);
  if (duplicated) {
    ScheduleDelivery(std::move(dup_msg), delay + jitter_s + dup_extra_s);
  }
  return true;
}

void Simulator::ScheduleDelivery(Message msg, SimTime delay) {
  if (replay_enabled_ && LossApplies(msg.kind)) {
    const uint64_t id = next_delivery_id_++;
    PendingDelivery& pending =
        inflight_.emplace(id, PendingDelivery{std::move(msg), 0})
            .first->second;
    pending.event = events_.ScheduleAfter(delay, [this, id]() {
      auto it = inflight_.find(id);
      if (it == inflight_.end()) return;
      const Message msg = std::move(it->second.msg);
      inflight_.erase(it);
      if (receive_handler_) receive_handler_(msg.dst, msg);
    });
    return;
  }
  // Steady-state zero-allocation path: the message parks in a recycled
  // arena slot and the closure captures {this, slot} — small enough for the
  // std::function small-buffer optimization.
  Message* slot = unicast_slots_.Create(std::move(msg));
  events_.ScheduleAfter(delay, [this, slot]() {
    if (receive_handler_) receive_handler_(slot->dst, *slot);
    unicast_slots_.Destroy(slot);
  });
}

void Simulator::NotifyAttemptAbort() {
  if (inflight_.empty()) return;
  // std::map iteration releases the deliveries in scheduling order, so the
  // replay buffer — and everything downstream — is deterministic.
  for (auto& [id, pending] : inflight_) {
    events_.Cancel(pending.event);
    replay_buffer_.push_back(std::move(pending.msg));
  }
  inflight_.clear();
}

uint32_t Simulator::FreshAttemptId() const {
  uint32_t fresh = 0;
  for (const Message& msg : replay_buffer_) {
    if (msg.tag.tagged()) fresh = std::max(fresh, msg.tag.attempt_id + 1);
  }
  return fresh;
}

int Simulator::ReleaseReplays() {
  if (replay_buffer_.empty()) return 0;
  std::vector<Message> captured;
  captured.swap(replay_buffer_);
  int released = 0;
  for (Message& msg : captured) {
    if (!alive(msg.dst) || !radio_.LinkUp(msg.src, msg.dst)) continue;
    const int fragments = NumFragments(msg.payload_bytes, packet_params_);
    const bool crc_active =
        integrity_params_.crc_enabled && LossApplies(msg.kind);
    const size_t frame_bytes =
        msg.payload_bytes +
        static_cast<size_t>(fragments) *
            (packet_params_.header_bytes + (crc_active ? kCrcBytes : 0));
    // The receiver's radio hears the stale frames again; the rx side is
    // charged and itemized. The sender pays nothing — these frames were
    // transmitted (and paid for) during the aborted attempt.
    const double rx_cost = AccountRx(msg.dst, msg.kind, fragments, frame_bytes);
    stats_[msg.dst].replayed_packets_received += fragments;
    totals_.replayed_packets += fragments;
    totals_.replay_energy_mj += rx_cost;
    if (Tracing(tracer_)) {
      tracer_->Record(obs::EventKind::kReplayRx, events_.now(), msg.dst,
                      msg.src, msg.kind, static_cast<uint32_t>(fragments),
                      frame_bytes, rx_cost);
    }
    ++released;
    ScheduleDelivery(std::move(msg), released * kReplayStaggerS);
  }
  return released;
}

int Simulator::Broadcast(Message msg, std::vector<NodeId>* delivered,
                         std::vector<NodeId>* corrupted) {
  SENSJOIN_CHECK(msg.src >= 0 && msg.src < num_nodes());
  if (delivered) delivered->clear();
  if (corrupted) corrupted->clear();
  if (!alive(msg.src)) return 0;
  // All receivers share one immutable copy of the message instead of a
  // per-receiver Message (and std::any payload) clone. Handlers identify
  // themselves by the receiver argument, never by msg.dst, which stays
  // kInvalidNode for local broadcasts.
  const auto shared = std::make_shared<const Message>(std::move(msg));
  const Message& bmsg = *shared;
  const int fragments = NumFragments(bmsg.payload_bytes, packet_params_);
  const bool crc_active =
      integrity_params_.crc_enabled && LossApplies(bmsg.kind);
  const size_t trailer_bytes =
      crc_active ? static_cast<size_t>(fragments) * kCrcBytes : 0;
  const size_t frame_bytes =
      bmsg.payload_bytes +
      static_cast<size_t>(fragments) * packet_params_.header_bytes +
      trailer_bytes;
  const size_t avg_frame_bytes = frame_bytes / fragments;
  const double tx_cost = AccountTx(bmsg.src, bmsg.kind, fragments, frame_bytes);
  if (crc_active) {
    totals_.crc_bytes_sent += trailer_bytes;
    totals_.crc_energy_mj += energy_model_.TxCost(0, trailer_bytes);
  }
  if (Tracing(tracer_)) {
    tracer_->Record(obs::EventKind::kFragTx, events_.now(), bmsg.src,
                    kInvalidNode, bmsg.kind, static_cast<uint32_t>(fragments),
                    frame_bytes, tx_cost);
    tracer_->ObserveMessage(bmsg.payload_bytes, fragments);
  }
  int trace_corrupted = 0;
  const SimTime delay = fragments * per_packet_latency_s_;
  int receivers = 0;
  for (NodeId nb : radio_.Neighbors(bmsg.src)) {
    if (!alive(nb) || radio_.LinkFailed(bmsg.src, nb)) continue;
    if (LossApplies(bmsg.kind) && radio_.OutageActive(bmsg.src, nb)) continue;
    // Per-receiver loss and corruption rolls; broadcasts carry no acks, so
    // a receiver missing any fragment — including one its CRC check
    // rejects — misses the logical message.
    const LinkRates rates =
        LossApplies(bmsg.kind) ? radio_.Rates(bmsg.src, nb) : LinkRates{};
    const double loss = rates.loss;
    const double corrupt = rates.corruption;
    int heard = fragments;    // frames physically received (rx cost)
    int accepted = fragments; // frames kept after the CRC check
    int frag_corruptions = 0;
    bool rx_corrupted = false;
    if (loss > 0.0 || corrupt > 0.0) {
      heard = 0;
      accepted = 0;
      for (int f = 0; f < fragments; ++f) {
        if (loss > 0.0 && fault_rng_.NextBool(loss)) continue;
        ++heard;
        if (corrupt > 0.0 && fault_rng_.NextBool(corrupt)) {
          ++frag_corruptions;
          if (crc_active) {
            ++totals_.corrupted_packets;
            continue;
          }
          ++totals_.undetected_corrupted_packets;
          rx_corrupted = true;
        }
        ++accepted;
      }
    }
    if (heard > 0) {
      const size_t rx_bytes =
          heard == fragments ? frame_bytes
                             : static_cast<size_t>(heard) * avg_frame_bytes;
      const double rx_cost = AccountRx(nb, bmsg.kind, heard, rx_bytes);
      if (crc_active) {
        totals_.crc_energy_mj += energy_model_.RxCost(
            0, static_cast<size_t>(heard) * kCrcBytes);
      }
      if (Tracing(tracer_)) {
        tracer_->Record(obs::EventKind::kFragRx, events_.now(), nb, bmsg.src,
                        bmsg.kind, static_cast<uint32_t>(heard), rx_bytes,
                        rx_cost);
      }
    }
    if (heard < fragments && Tracing(tracer_)) {
      tracer_->Record(obs::EventKind::kFragLoss, events_.now(), nb, bmsg.src,
                      bmsg.kind, static_cast<uint32_t>(fragments - heard), 0,
                      0.0);
    }
    if (frag_corruptions > 0) {
      stats_[nb].corrupted_packets_received += frag_corruptions;
      trace_corrupted += frag_corruptions;
      if (Tracing(tracer_)) {
        tracer_->Record(
            obs::EventKind::kFragCorrupt, events_.now(), nb, bmsg.src,
            bmsg.kind, static_cast<uint32_t>(frag_corruptions), 0, 0.0,
            static_cast<uint32_t>(crc_active ? frag_corruptions : 0));
      }
    }
    if (accepted < fragments) continue;
    ++receivers;
    if (delivered) delivered->push_back(nb);
    if (corrupted && rx_corrupted) corrupted->push_back(nb);
    // Per-receiver jitter, drawn strictly after this receiver's loss and
    // corruption rolls (and only when enabled), keeps no-jitter plans
    // RNG-identical. Broadcasts are neither duplicated nor replayed: the
    // duplication model is the unicast ack race, and broadcasts carry no
    // acks.
    SimTime jitter_s = 0.0;
    if (delay_params_.enabled() && LossApplies(bmsg.kind)) {
      jitter_s = fault_rng_.UniformDouble(0.0, delay_params_.max_jitter_s);
    }
    BroadcastRx* slot = broadcast_slots_.Create(BroadcastRx{shared, nb});
    events_.ScheduleAfter(delay + jitter_s, [this, slot]() {
      if (receive_handler_) receive_handler_(slot->receiver, *slot->msg);
      broadcast_slots_.Destroy(slot);
    });
  }
  if (trace_sink_) {
    trace_sink_(TraceRecord{events_.now(), bmsg.src, kInvalidNode, bmsg.kind,
                            fragments, bmsg.payload_bytes,
                            /*broadcast=*/true, /*delivered=*/true,
                            /*retransmissions=*/0, trace_corrupted});
  }
  return receivers;
}

BitWriter Simulator::DamagePayload(const BitWriter& payload) {
  const size_t bits = payload.size_bits();
  if (bits == 0) return BitWriter{};
  std::vector<uint8_t> bytes = payload.bytes();
  if (fault_rng_.NextBool(kTruncationFraction)) {
    // Tail truncation: the radio lost symbol sync partway through.
    const size_t keep = static_cast<size_t>(
        fault_rng_.UniformInt(0, static_cast<int64_t>(bits) - 1));
    bytes.resize((keep + 7) / 8);
    return BitWriter::FromBytes(std::move(bytes), keep);
  }
  // A short burst of bit flips.
  const int flips = static_cast<int>(fault_rng_.UniformInt(1, 3));
  for (int i = 0; i < flips; ++i) {
    const size_t pos = static_cast<size_t>(
        fault_rng_.UniformInt(0, static_cast<int64_t>(bits) - 1));
    bytes[pos / 8] ^= static_cast<uint8_t>(0x80u >> (pos % 8));
  }
  return BitWriter::FromBytes(std::move(bytes), bits);
}

void Simulator::ScheduleCrash(NodeId id, SimTime at) {
  SENSJOIN_CHECK(id >= 0 && id < num_nodes());
  events_.ScheduleAt(at, [this, id] {
    set_alive(id, false);
    if (Tracing(tracer_)) {
      tracer_->Record(obs::EventKind::kCrash, events_.now(), id, kInvalidNode,
                      MessageKind::kNumKinds, /*count=*/1, /*bytes=*/0,
                      /*energy_mj=*/0.0);
    }
  });
}

void Simulator::ScheduleRecovery(NodeId id, SimTime at) {
  SENSJOIN_CHECK(id >= 0 && id < num_nodes());
  events_.ScheduleAt(at, [this, id] {
    set_alive(id, true);
    if (Tracing(tracer_)) {
      tracer_->Record(obs::EventKind::kRestore, events_.now(), id,
                      kInvalidNode, MessageKind::kNumKinds, /*count=*/1,
                      /*bytes=*/0, /*energy_mj=*/0.0);
    }
  });
}

void Simulator::ScheduleLinkOutage(const LinkOutageWindow& window) {
  SENSJOIN_CHECK(window.up_at >= window.down_at)
      << "link outage window ends before it starts";
  events_.ScheduleAt(window.down_at, [this, a = window.a, b = window.b] {
    radio_.SetLinkOutage(a, b, /*down=*/true);
  });
  events_.ScheduleAt(window.up_at, [this, a = window.a, b = window.b] {
    radio_.SetLinkOutage(a, b, /*down=*/false);
  });
}

void Simulator::ResetStats() {
  for (NodeStats& s : stats_) s.Reset();
  totals_ = Ledger{};
}

}  // namespace sensjoin::sim
