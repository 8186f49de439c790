#ifndef SENSJOIN_SIM_FAULT_MODEL_H_
#define SENSJOIN_SIM_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "sensjoin/sim/radio.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::sim {

class Simulator;

/// Link-layer automatic repeat request. Real WSN MACs (e.g. 802.15.4 with
/// macMaxFrameRetries) acknowledge unicast frames and retransmit a bounded
/// number of times with backoff; the retransmissions are real energy spent
/// and must appear in the accounting (cf. Buragohain et al., power-aware
/// routing for sensor databases). Disabled by default so the fault-free
/// paper experiments are bit-identical to the seed. The backoff schedule
/// and the ack frame size are the simulator's constants (kArqBackoffBaseS,
/// kArqBackoffFactor, kAckBytes in sim/simulator.cc).
struct ArqParams {
  bool enabled = false;

  /// Retransmissions per data fragment beyond the initial attempt. A
  /// fragment that is still unacknowledged afterwards makes the whole
  /// logical message undeliverable (the sender gives up, upper layers
  /// recover).
  int max_retransmissions = 3;
};

/// Rate override for one (bidirectional) link: replaces all three of the
/// link's rates, so an entry that raises one axis copies the others from
/// the plan's defaults.
struct LinkRatesOverride {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  LinkRates rates;
};

/// Per-message delivery-delay jitter: every delivered loss-eligible message
/// gets extra latency drawn uniformly from [0, max_jitter_s] (seeded).
/// With a spread wider than the per-packet airtime, a later send can
/// overtake an earlier one through the event queue, which is exactly the
/// reordering the exactly-once layer must tolerate. Disabled (zero) by
/// default so fault-free runs draw no extra randomness.
struct DelayParams {
  double max_jitter_s = 0.0;

  bool enabled() const { return max_jitter_s > 0.0; }
};

/// The per-fragment integrity layer: every data fragment carries a CRC-16
/// trailer (the 802.15.4 FCS analog, kCrcBytes in sim/simulator.cc). The
/// trailer is charged but no checksum is computed: detection is modeled as
/// perfect (a CRC-16 misses a corruption only with probability 2^-16,
/// rounded to zero), so a receiver detects a corrupted payload and
/// silently drops the fragment — from the sender's point of view, a
/// detected corruption is exactly a loss, and it feeds the same ARQ
/// retransmissions and phase-level recovery. The trailer bytes and the
/// retransmissions that corruption triggers are charged in the energy
/// model and itemized in CostReport. With `crc_enabled == false` (the
/// ablation knob) corrupted fragments are accepted and the damaged payload
/// reaches the application decoders.
struct IntegrityParams {
  bool crc_enabled = true;
};

/// A scheduled transient outage of one (bidirectional) link: the link goes
/// dark at `down_at` and comes back at `up_at`. Unlike FailLink, an outage
/// affects only message kinds that are also subject to loss — beacons,
/// query floods and repair traffic are exempt, so a fault plan never
/// changes which routing tree gets built, but in-flight join traffic sees a
/// link that is down now and up again later (the scenario in-network tree
/// repair must survive without a full re-execution).
struct LinkOutageWindow {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  SimTime down_at = 0;
  SimTime up_at = 0;
};

/// A scheduled liveness change, fired through the simulator's event queue:
/// at `at`, the node crashes (recover == false) or reboots (recover ==
/// true). A rebooted node keeps its identity and sensor data but needs a
/// routing-tree rebuild to rejoin the collection tree.
struct CrashEvent {
  NodeId node = kInvalidNode;
  SimTime at = 0;
  bool recover = false;
};

/// A declarative fault scenario: ambient per-link fault rates with per-link
/// overrides, link outages and node churn, all reproducible under `seed`.
/// Apply with ApplyFaultPlan before executing queries.
struct FaultPlan {
  /// Fault rates of every link without an override (see LinkRates). Each
  /// axis draws randomness only where its rate is non-zero, so a plan that
  /// leaves an axis at zero consumes exactly the RNG stream of a plan
  /// without it; beacons, query floods and repair traffic are exempt from
  /// all three. Corruption is rolled for fragments that survive the loss
  /// roll; duplication strictly after the loss/corruption/ack rolls, with
  /// the duplicate heard (and processed) after a seeded extra delay.
  /// Duplicate receptions are energy-charged and itemized
  /// (CostReport::duplicate_packets).
  LinkRates rates;

  /// Per-link replacements of `rates`; a later entry for the same link
  /// wins.
  std::vector<LinkRatesOverride> link_overrides;

  std::vector<CrashEvent> crash_events;

  /// Transient link blackout windows, fired through the event queue.
  std::vector<LinkOutageWindow> link_outages;

  /// Per-message delivery-delay jitter (reordering); see DelayParams.
  DelayParams delay;

  /// Cross-attempt replay: when an executor aborts an attempt, logical
  /// messages still in flight are captured instead of vanishing and are
  /// re-delivered — stale tags and all — at the start of the next attempt,
  /// spaced a fixed stagger apart (deterministic, no RNG). Off by default.
  bool enable_replay = false;

  /// Link-layer ARQ policy to install on the simulator.
  ArqParams arq;

  /// Integrity layer for the corruption model. The CRC trailer is installed
  /// (and its bytes charged) only when the plan actually configures
  /// corruption, so corruption-free plans leave every frame — and thus
  /// packet counts, bytes and energy — bit-identical to the seed.
  IntegrityParams integrity;

  /// Seed of the drop-decision stream. Runs with equal plans (and equal
  /// protocol behavior) are exactly reproducible.
  uint64_t seed = 0x5EED5;

  /// True when any corruption rate (default or override) is non-zero.
  bool HasCorruption() const;
};

/// Installs `plan` on `sim`: sets the rate table on the radio, the ARQ,
/// integrity, jitter and replay policies and the drop seed on the
/// simulator, and schedules every crash/recover event
/// through the simulator's event queue.
void ApplyFaultPlan(Simulator& sim, const FaultPlan& plan);

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_FAULT_MODEL_H_
