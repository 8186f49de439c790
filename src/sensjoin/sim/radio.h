#ifndef SENSJOIN_SIM_RADIO_H_
#define SENSJOIN_SIM_RADIO_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/logging.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::sim {

/// Memory-layout knobs for the radio.
struct RadioOptions {
  /// Up to this many nodes the radio materializes per-node sorted adjacency
  /// lists (fast repeated iteration, O(avg_degree * n) memory). Above it the
  /// radio keeps only the spatial grid and answers neighbor queries on
  /// demand — at 100k+ nodes the adjacency lists would dominate the
  /// footprint. Negative means "always materialize".
  int materialize_threshold = 32768;
};

/// The wireless medium: unit-disk connectivity with bidirectional links
/// (the common setting the paper adopts, Sec. VI "General setting") plus
/// dynamic per-link failures for error-tolerance experiments.
class Radio {
 public:
  /// Builds the adjacency from node `positions` and a fixed communication
  /// `range_m` (paper default: 50 m).
  Radio(std::vector<Point> positions, double range_m,
        RadioOptions options = RadioOptions{});

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  double range_m() const { return range_m_; }
  const Point& position(NodeId id) const { return positions_[id]; }
  const std::vector<Point>& positions() const { return positions_; }

  /// True when per-node adjacency lists are materialized (node count at or
  /// below RadioOptions::materialize_threshold).
  bool materialized() const { return materialized_; }

  /// Nodes within communication range of `id` (excluding failed links is the
  /// caller's concern; this is the static neighborhood). Only valid in
  /// materialized mode — callers that must work at any scale use the
  /// scratch-buffer overload below.
  const std::vector<NodeId>& Neighbors(NodeId id) const {
    SENSJOIN_DCHECK(materialized_);
    return neighbors_[id];
  }

  /// Fills `out` with the static neighborhood of `id`, ascending. Works in
  /// both modes: materialized mode copies the precomputed list, on-demand
  /// mode scans the 3x3 grid cells around the node. The two modes produce
  /// identical output (regression-tested).
  void Neighbors(NodeId id, std::vector<NodeId>& out) const;

  /// True if a and b are within range of each other and the link is not
  /// currently failed.
  bool LinkUp(NodeId a, NodeId b) const;

  /// True if a and b are within range (ignoring failures). Materialized
  /// mode binary-searches the sorted neighbor list (no sqrt); on-demand
  /// mode falls back to the distance computation.
  bool InRange(NodeId a, NodeId b) const;

  /// Marks the (bidirectional) link between a and b as down / up again.
  /// Out-of-range node ids and self-links (a == b) are ignored.
  void FailLink(NodeId a, NodeId b);
  void RestoreLink(NodeId a, NodeId b);
  size_t num_failed_links() const { return failed_links_.size(); }

  /// Called after every effective FailLink (`up == false`) / RestoreLink
  /// (`up == true`) on a valid link. Used by the simulator to surface link
  /// churn into the observability trace; empty function to disable.
  using LinkObserver = std::function<void(NodeId a, NodeId b, bool up)>;
  void set_link_observer(LinkObserver observer) {
    link_observer_ = std::move(observer);
  }

  // --- Transient link outages --------------------------------------------
  // An outage is a temporary blackout of a (bidirectional) link, distinct
  // from FailLink: it does not change LinkUp — and therefore never changes
  // which routing tree a beaconing round builds — and the simulator applies
  // it only to message kinds that are also subject to loss, so beacons,
  // query floods and repair traffic pass through (exactly like the loss and
  // corruption models). Scheduled windows come from
  // sim::LinkOutageWindow via Simulator::ScheduleLinkOutage.

  /// Marks the link a-b as in (down == true) or out of (down == false) an
  /// outage. Invalid links are ignored; the link observer fires on every
  /// effective change.
  void SetLinkOutage(NodeId a, NodeId b, bool down);

  /// True while the link a-b is inside a scheduled outage window.
  bool OutageActive(NodeId a, NodeId b) const;

  // --- Probabilistic per-link packet loss --------------------------------
  // A loss rate is the probability that one link-layer fragment is dropped
  // on its way over the link; the simulator rolls the dice (seeded) per
  // transmitted fragment. 0 everywhere by default, so the fault-free
  // experiments are unaffected.

  /// Loss rate applied to every link without an explicit override.
  /// Clamped to [0, 1].
  void set_default_loss_rate(double p);
  double default_loss_rate() const { return default_loss_rate_; }

  /// Sets the loss rate of the (bidirectional) link a-b, overriding the
  /// default. Invalid ids and self-links are ignored.
  void SetLinkLossRate(NodeId a, NodeId b, double p);

  /// Effective loss rate of the link a-b (override if set, else default);
  /// 0 for invalid links.
  double LossRate(NodeId a, NodeId b) const;

  // --- Probabilistic per-link payload corruption -------------------------
  // A corruption rate is the probability that one link-layer fragment
  // arrives with damaged payload bits (bit flips or truncation) instead of
  // being dropped outright. The simulator rolls per fragment that survives
  // the loss roll; 0 everywhere by default, so corruption-free runs draw no
  // extra randomness and stay bit-identical.

  /// Corruption rate applied to every link without an explicit override.
  /// Clamped to [0, 1].
  void set_default_corruption_rate(double p);
  double default_corruption_rate() const { return default_corruption_rate_; }

  /// Sets the corruption rate of the (bidirectional) link a-b, overriding
  /// the default. Invalid ids and self-links are ignored.
  void SetLinkCorruptionRate(NodeId a, NodeId b, double p);

  /// Effective corruption rate of the link a-b (override if set, else
  /// default); 0 for invalid links.
  double CorruptionRate(NodeId a, NodeId b) const;

  // --- Probabilistic per-link message duplication ------------------------
  // A duplication rate is the probability that one delivered logical
  // unicast is heard a second time (the 802.15.4 lost-ack race). The
  // simulator rolls once per delivered message, strictly after the loss and
  // corruption rolls; 0 everywhere by default, so plans without duplication
  // draw no extra randomness and stay bit-identical.

  /// Duplication rate applied to every link without an explicit override.
  /// Clamped to [0, 1].
  void set_default_duplication_rate(double p);
  double default_duplication_rate() const { return default_duplication_rate_; }

  /// Sets the duplication rate of the (bidirectional) link a-b, overriding
  /// the default. Invalid ids and self-links are ignored.
  void SetLinkDuplicationRate(NodeId a, NodeId b, double p);

  /// Effective duplication rate of the link a-b (override if set, else
  /// default); 0 for invalid links.
  double DuplicationRate(NodeId a, NodeId b) const;

  /// True if every node can reach `root` over up links.
  bool IsConnected(NodeId root) const;

 private:
  uint64_t LinkKey(NodeId a, NodeId b) const;
  bool ValidLink(NodeId a, NodeId b) const {
    return a != b && a >= 0 && b >= 0 && a < num_nodes() && b < num_nodes();
  }
  int64_t CellKey(const Point& p) const;

  std::vector<Point> positions_;
  double range_m_;
  bool materialized_ = true;
  std::vector<std::vector<NodeId>> neighbors_;  ///< materialized mode only
  /// On-demand mode: grid cells of side range_m, kept for neighbor scans.
  std::unordered_map<int64_t, std::vector<NodeId>> grid_;
  double grid_min_x_ = 0.0;
  double grid_min_y_ = 0.0;
  std::unordered_set<uint64_t> failed_links_;
  std::unordered_set<uint64_t> outage_links_;
  LinkObserver link_observer_;
  double default_loss_rate_ = 0.0;
  std::unordered_map<uint64_t, double> link_loss_;
  double default_corruption_rate_ = 0.0;
  std::unordered_map<uint64_t, double> link_corruption_;
  double default_duplication_rate_ = 0.0;
  std::unordered_map<uint64_t, double> link_duplication_;
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_RADIO_H_
