#ifndef SENSJOIN_SIM_FAULT_MODEL_H_
#define SENSJOIN_SIM_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "sensjoin/sim/time.h"

namespace sensjoin::sim {

class Simulator;

/// Link-layer automatic repeat request. Real WSN MACs (e.g. 802.15.4 with
/// macMaxFrameRetries) acknowledge unicast frames and retransmit a bounded
/// number of times with backoff; the retransmissions are real energy spent
/// and must appear in the accounting (cf. Buragohain et al., power-aware
/// routing for sensor databases). Disabled by default so the fault-free
/// paper experiments are bit-identical to the seed.
struct ArqParams {
  bool enabled = false;

  /// Retransmissions per data fragment beyond the initial attempt. A
  /// fragment that is still unacknowledged afterwards makes the whole
  /// logical message undeliverable (the sender gives up, upper layers
  /// recover).
  int max_retransmissions = 3;

  /// Backoff before the first retransmission; each further retransmission
  /// multiplies the wait by `backoff_factor` (exponential backoff).
  double backoff_base_s = 0.008;
  double backoff_factor = 2.0;

  /// Wire size of an acknowledgement frame (header-only packet).
  int ack_bytes = 8;
};

/// Loss-rate override for one (bidirectional) link.
struct LinkLossOverride {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double loss_rate = 0.0;
};

/// Corruption-rate override for one (bidirectional) link.
struct LinkCorruptionOverride {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double corruption_rate = 0.0;
};

/// Duplication-rate override for one (bidirectional) link.
struct LinkDuplicationOverride {
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  double duplication_rate = 0.0;
};

/// Per-message delivery-delay jitter: every delivered loss-eligible message
/// gets extra latency drawn uniformly from [min_jitter_s, max_jitter_s]
/// (seeded). With a spread wider than the per-packet airtime, a later send
/// can overtake an earlier one through the event queue, which is exactly
/// the reordering the exactly-once layer must tolerate. Disabled (all
/// zeros) by default so fault-free runs draw no extra randomness.
struct DelayParams {
  double min_jitter_s = 0.0;
  double max_jitter_s = 0.0;

  bool enabled() const { return max_jitter_s > 0.0; }
};

/// The per-fragment integrity layer: every data fragment carries a CRC-16
/// trailer (the 802.15.4 FCS analog). The trailer is charged but no checksum
/// is computed: detection is modeled as perfect, so a receiver detects
/// a corrupted payload and silently drops the fragment — from the sender's
/// point of view, a detected corruption is exactly a loss, and it feeds the
/// same ARQ retransmissions and phase-level recovery. The trailer bytes and
/// the retransmissions that corruption triggers are charged in the energy
/// model and itemized in CostReport. With `crc_enabled == false` (the
/// ablation knob) corrupted fragments are accepted and the damaged payload
/// reaches the application decoders.
struct IntegrityParams {
  bool crc_enabled = true;

  /// Wire size of the per-fragment CRC trailer. CRC-16 is the WSN-typical
  /// choice (TinyOS/802.15.4 frames); a detected corruption escapes only
  /// with probability 2^-16, which the simulator rounds to zero.
  int crc_bytes = 2;

  /// Fraction of corruption events that truncate the payload instead of
  /// flipping bits (radios lose frame tails on late symbol-sync errors).
  double truncation_fraction = 0.25;
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

/// A declarative fault scenario: ambient packet loss, per-link overrides
/// and node churn, all reproducible under `seed`. Apply with
/// ApplyFaultPlan before executing queries.
struct FaultPlan {
  /// Per-fragment loss probability on every link without an override.
  double default_loss_rate = 0.0;

  std::vector<LinkLossOverride> link_overrides;
  std::vector<CrashEvent> crash_events;

  /// Transient link blackout windows, fired through the event queue.
  std::vector<LinkOutageWindow> link_outages;

  /// Per-fragment corruption probability (bit flips / truncation) on every
  /// link without an override, rolled for fragments that survive the loss
  /// roll. Like loss, zero-corruption runs draw no randomness, so they stay
  /// bit-identical to the seed; beacons and query floods are exempt.
  double default_corruption_rate = 0.0;
  std::vector<LinkCorruptionOverride> corruption_overrides;

  /// Per-message duplication probability: a delivered logical unicast is
  /// heard (and processed) a second time after a seeded extra delay — the
  /// 802.15.4 ack-race phenomenon promoted from a cost artifact to an
  /// actual second delivery. Rolled strictly after the loss/corruption/ack
  /// rolls, so plans without duplication consume exactly the seed's RNG
  /// stream; beacons, query floods and repair traffic are exempt (like
  /// loss). Duplicate receptions are energy-charged and itemized
  /// (CostReport::duplicate_packets).
  double default_duplication_rate = 0.0;
  std::vector<LinkDuplicationOverride> duplication_overrides;

  /// Upper bound of the seeded extra delay before a duplicate delivery
  /// (drawn uniformly on top of one message airtime).
  double duplication_delay_s = 0.012;

  /// Per-message delivery-delay jitter (reordering); see DelayParams.
  DelayParams delay;

  /// Cross-attempt replay: when an executor aborts an attempt, logical
  /// messages still in flight are captured instead of vanishing and are
  /// re-delivered — stale tags and all — at the start of the next attempt,
  /// spaced `replay_stagger_s` apart (deterministic, no RNG). Off by
  /// default.
  bool enable_replay = false;
  double replay_stagger_s = 0.002;

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

/// Installs `plan` on `sim`: sets loss rates on the radio, the ARQ policy
/// and drop seed on the simulator, and schedules every crash/recover event
/// through the simulator's event queue.
void ApplyFaultPlan(Simulator& sim, const FaultPlan& plan);

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_FAULT_MODEL_H_
