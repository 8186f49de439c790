#ifndef SENSJOIN_SIM_SIMULATOR_H_
#define SENSJOIN_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sensjoin/common/bit_stream.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/sim/arena.h"
#include "sensjoin/sim/energy_model.h"
#include "sensjoin/sim/event_queue.h"
#include "sensjoin/sim/fault_model.h"
#include "sensjoin/sim/node.h"
#include "sensjoin/sim/packet.h"
#include "sensjoin/sim/radio.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::obs {
class Tracer;
}  // namespace sensjoin::obs

namespace sensjoin::sim {

/// One transmission event, as seen by an attached trace sink. `dst` is
/// kInvalidNode for local broadcasts; `delivered` is false when the
/// unicast destination was dead or the link down.
struct TraceRecord {
  SimTime time = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  MessageKind kind = MessageKind::kAppData;
  int fragments = 0;
  size_t payload_bytes = 0;
  bool broadcast = false;
  bool delivered = false;
  int retransmissions = 0;  ///< ARQ data-fragment retransmissions (unicast)
  int corrupted_fragments = 0;  ///< fragments damaged in flight (any attempt)
};

/// The discrete-event WSN simulator tying together the event queue, the
/// radio medium, per-node accounting and the energy model. Protocol layers
/// exchange logical Messages; the simulator fragments them into link-layer
/// packets for cost accounting (the paper's metric is the number of such
/// packet transmissions at 48-byte max packet size).
class Simulator {
 public:
  /// Called when a node receives a complete logical message.
  using ReceiveHandler = std::function<void(NodeId receiver, const Message&)>;

  /// Called synchronously for every transmission (unicast or broadcast).
  using TraceSink = std::function<void(const TraceRecord&)>;

  /// Takes over `radio` and its neighbor table: a deployment builds the
  /// radio once (net::GenerateConnectedPlacement) and moves it in.
  Simulator(Radio radio, PacketizationParams packets = PacketizationParams{},
            EnergyModel energy = EnergyModel{});

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }
  Radio& radio() { return radio_; }
  const Radio& radio() const { return radio_; }
  const PacketizationParams& packet_params() const { return packet_params_; }

  int num_nodes() const { return radio_.num_nodes(); }

  // Per-node hot state, struct-of-arrays: the one-byte liveness bits and
  // the stats blocks live in separate dense vectors so liveness scans and
  // accounting touch only the cache lines they need.
  bool alive(NodeId id) const { return alive_[id] != 0; }
  void set_alive(NodeId id, bool alive) {
    alive_[id] = static_cast<uint8_t>(alive);
  }
  NodeStats& stats(NodeId id) { return stats_[id]; }
  const NodeStats& stats(NodeId id) const { return stats_[id]; }

  /// Installs the handler invoked on every message delivery. Protocol
  /// drivers (routing, joins) install themselves here for the duration of a
  /// phase; the previous handler is returned so it can be restored.
  ReceiveHandler SetReceiveHandler(ReceiveHandler handler);

  /// Sends a logical message from msg.src to msg.dst over one hop.
  /// Transmission cost is always paid by the sender; the message is
  /// delivered only if both endpoints are alive, the link is up, and every
  /// fragment survives the link's loss rate (with ARQ enabled, within the
  /// bounded retransmission budget). A fragment that survives loss may
  /// still be corrupted in flight: with the CRC trailer enabled the
  /// receiver detects and drops it exactly like a loss (it feeds the same
  /// ARQ budget); with CRC disabled the fragment is accepted and, when the
  /// message is delivered, `*corrupted` is set so the protocol layer can
  /// materialize the damage on its payload (DamagePayload). Returns true
  /// if delivery was scheduled.
  bool SendUnicast(Message msg, bool* corrupted = nullptr);

  /// Local broadcast: one transmission (per fragment), every alive neighbor
  /// with an up link that receives all fragments (per-receiver loss rolls;
  /// broadcasts are never ARQ-protected) gets the message. Returns the
  /// number of receivers; if `delivered` is non-null it is filled with
  /// their ids in ascending order. Corruption is rolled per receiver like
  /// loss: with CRC enabled a corrupted fragment counts as missed; with CRC
  /// disabled the receiver accepts the damaged message and is additionally
  /// listed in `corrupted` (a subset of `delivered`).
  int Broadcast(Message msg, std::vector<NodeId>* delivered = nullptr,
                std::vector<NodeId>* corrupted = nullptr);

  // --- Fault injection ---------------------------------------------------

  /// Link-layer ARQ policy for unicasts (off by default).
  void set_arq_params(const ArqParams& arq) { arq_params_ = arq; }
  const ArqParams& arq_params() const { return arq_params_; }

  /// Per-fragment CRC integrity layer (off by default so the seed's frames
  /// are untouched; ApplyFaultPlan enables it with the corruption model).
  void set_integrity_params(const IntegrityParams& p) {
    integrity_params_ = p;
  }

  /// Materializes one undetected-corruption event on a payload bitstring:
  /// truncation or a small burst of bit flips, drawn from the seeded fault
  /// RNG (so damaged runs stay reproducible). Protocol layers call this for
  /// messages delivered with `corrupted == true` before handing the bytes
  /// to their (hardened) decoders.
  BitWriter DamagePayload(const BitWriter& payload);

  /// Reseeds the fragment-drop decision stream; runs with equal seeds,
  /// loss rates and traffic are exactly reproducible.
  void SeedFaults(uint64_t seed) { fault_rng_ = Rng(seed); }

  /// Per-message delivery jitter (reordering); disabled by default so no
  /// extra randomness is drawn and delivery order matches the seed.
  void set_delay_params(const DelayParams& p) { delay_params_ = p; }

  /// Cross-attempt replay: with `enabled`, loss-eligible unicast deliveries
  /// are tracked in flight; NotifyAttemptAbort captures the pending ones
  /// and ReleaseReplays re-delivers them (stale tags intact) spaced a fixed
  /// stagger apart. Off by default — no tracking, no behavior change.
  void set_replay_enabled(bool enabled) { replay_enabled_ = enabled; }

  /// Captures every in-flight loss-eligible delivery (canceling its
  /// delivery event) into the replay buffer. Executors call this when an
  /// attempt fails, before draining the event queue. No-op with replay
  /// disabled.
  void NotifyAttemptAbort();

  /// Re-schedules the captured deliveries of the previously aborted
  /// attempt, charging the receiver for hearing the stale frames again
  /// (itemized as replayed packets). Executors call this at the start of
  /// the next attempt. Returns the number of messages released.
  int ReleaseReplays();

  /// The lowest attempt id above every tagged delivery buffered for replay
  /// (0 when none is). An attempt driver starting there sees what an
  /// earlier exhausted call left in flight as stale.
  uint32_t FreshAttemptId() const;

  /// Schedules a node crash / reboot through the event queue. A crashed
  /// node neither sends nor receives until a recovery event fires.
  void ScheduleCrash(NodeId id, SimTime at);
  void ScheduleRecovery(NodeId id, SimTime at);

  /// Schedules a transient link blackout window through the event queue.
  /// While the window is open, unicasts and broadcasts of loss-eligible
  /// kinds fail over the link; beacons, query floods and repair traffic
  /// pass through (see Radio's outage comment).
  void ScheduleLinkOutage(const LinkOutageWindow& window);

  /// Current simulation time.
  SimTime now() const { return events_.now(); }

  // --- Global accounting -------------------------------------------------

  /// Network-wide counters since construction or the last ResetStats.
  const Ledger& totals() const { return totals_; }

  /// Clears all global and per-node counters (topology is untouched).
  void ResetStats();

  /// Seconds of airtime per link-layer packet (serialization + MAC).
  double per_packet_latency_s() const { return per_packet_latency_s_; }
  void set_per_packet_latency_s(double s) { per_packet_latency_s_ = s; }

  /// Installs a transmission trace sink (empty function to disable).
  /// Returns the previous sink.
  TraceSink SetTraceSink(TraceSink sink);

  /// Attaches (or with nullptr detaches) an observability tracer. The
  /// simulator does not own it; the tracer must outlive the attachment and
  /// be private to this simulator's trial (it is not thread-safe). Also
  /// wires radio link-churn events into the trace. With no tracer attached
  /// — or the tracer disabled — the instrumented paths cost one branch and
  /// record nothing; compile with SENSJOIN_TRACING=0 to remove them.
  void set_tracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

 private:
  /// Charges tx costs at `sender` for `fragments` packets carrying
  /// `frame_bytes` bytes of frames in total. Returns the energy debited.
  double AccountTx(NodeId sender, MessageKind kind, int fragments,
                   size_t frame_bytes);
  double AccountRx(NodeId receiver, MessageKind kind, int fragments,
                   size_t frame_bytes);

  /// Schedules a unicast delivery event `delay` from now. With replay
  /// enabled and a loss-eligible kind, the delivery is tracked in flight so
  /// NotifyAttemptAbort can capture it.
  void ScheduleDelivery(Message msg, SimTime delay);

  /// True when `kind` is subject to packet loss (and, by the same gate,
  /// corruption and transient link outages). Tree maintenance — CTP
  /// beaconing and the repair traffic of net/tree_maintenance.h — and query
  /// floods are modeled as reliable: in the real system they are amortized
  /// over periodic repetition (beaconing, flood rebroadcasts) rather than
  /// per-execution ARQ, and keeping them deterministic means a fault plan
  /// never changes which routing tree gets built or repaired, and that
  /// fault-free runs draw zero fault randomness.
  static bool LossApplies(MessageKind kind) {
    return kind != MessageKind::kBeacon && kind != MessageKind::kQuery &&
           kind != MessageKind::kRepair;
  }

  EventQueue events_;
  Radio radio_;
  PacketizationParams packet_params_;
  EnergyModel energy_model_;
  std::vector<uint8_t> alive_;
  std::vector<NodeStats> stats_;
  ReceiveHandler receive_handler_;
  TraceSink trace_sink_;
  obs::Tracer* tracer_ = nullptr;
  double per_packet_latency_s_ = 0.004;
  ArqParams arq_params_;
  IntegrityParams integrity_params_{.crc_enabled = false};
  Rng fault_rng_{0x5EED5};

  Ledger totals_;

  // --- Delivery jitter / duplication / cross-attempt replay --------------
  DelayParams delay_params_;
  bool replay_enabled_ = false;
  /// In-flight unicast deliveries, keyed by a monotonically increasing id
  /// (std::map: capture order on abort must be deterministic).
  struct PendingDelivery {
    Message msg;
    EventId event = 0;
  };
  std::map<uint64_t, PendingDelivery> inflight_;
  uint64_t next_delivery_id_ = 0;
  std::vector<Message> replay_buffer_;

  // --- Delivery-slot memory ----------------------------------------------
  /// One broadcast reception: the shared logical message plus the receiver
  /// it is bound for.
  struct BroadcastRx {
    std::shared_ptr<const Message> msg;
    NodeId receiver = kInvalidNode;
  };
  /// Arena-pooled delivery slots. Scheduling a delivery parks the message
  /// in a recycled slot and the event closure captures only {this, slot} —
  /// small enough for the std::function small-buffer — so the steady state
  /// allocates nothing per send.
  Arena delivery_arena_;
  ArenaPool<Message> unicast_slots_{&delivery_arena_};
  ArenaPool<BroadcastRx> broadcast_slots_{&delivery_arena_};
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_SIMULATOR_H_
