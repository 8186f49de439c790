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

/// The fault rates of one link, each a probability in [0, 1]:
///  - loss: one link-layer fragment is dropped on its way over the link;
///  - corruption: a fragment that survives the loss roll arrives with
///    damaged payload bits (bit flips or truncation);
///  - duplication: a delivered logical unicast is heard a second time (the
///    802.15.4 lost-ack race), rolled once per message strictly after the
///    loss and corruption rolls.
struct LinkRates {
  double loss = 0.0;
  double corruption = 0.0;
  double duplication = 0.0;
};

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

  // --- Probabilistic per-link faults --------------------------------------
  // One rate table covers the three per-link fault axes (LinkRates): one
  // default for every link plus per-link overrides. The simulator rolls the
  // dice (seeded) only for non-zero rates and only for loss-eligible
  // message kinds, so an all-zero table — the default — draws no
  // randomness and leaves the fault-free experiments untouched.

  /// Rates applied to every link without an explicit override. Each rate
  /// is clamped to [0, 1].
  void set_default_rates(const LinkRates& rates);

  /// Replaces all three rates of the (bidirectional) link a-b, overriding
  /// the default. Each rate is clamped to [0, 1]; invalid ids and
  /// self-links are ignored.
  void SetLinkRates(NodeId a, NodeId b, const LinkRates& rates);

  /// Effective rates of the link a-b (override if set, else default); all
  /// zero for invalid links.
  LinkRates Rates(NodeId a, NodeId b) const;

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
  LinkRates default_rates_;
  std::unordered_map<uint64_t, LinkRates> link_rates_;
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_RADIO_H_
