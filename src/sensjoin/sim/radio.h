#ifndef SENSJOIN_SIM_RADIO_H_
#define SENSJOIN_SIM_RADIO_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sensjoin/common/geometry.h"
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

/// The wireless medium: unit-disk connectivity with bidirectional links
/// (the common setting the paper adopts, Sec. VI "General setting") plus
/// dynamic per-link failures for error-tolerance experiments.
///
/// The static unit-disk graph is one CSR table (compressed sparse row),
/// built once at construction: per-node offsets into one array of neighbor
/// ids, each node's run ascending. It costs 4 B per node plus 4 B per
/// directed link, so it serves every network size.
class Radio {
 public:
  /// Builds the neighbor table from node `positions` and a fixed
  /// communication `range_m` (paper default: 50 m).
  Radio(std::vector<Point> positions, double range_m);

  int num_nodes() const { return static_cast<int>(positions_.size()); }
  double range_m() const { return range_m_; }
  const Point& position(NodeId id) const { return positions_[id]; }
  const std::vector<Point>& positions() const { return positions_; }

  /// Nodes within communication range of `id`, ascending (excluding failed
  /// links is the caller's concern; this is the static neighborhood). The
  /// span stays valid for the radio's lifetime.
  std::span<const NodeId> Neighbors(NodeId id) const {
    return {neighbor_ids_.data() + offsets_[id],
            neighbor_ids_.data() + offsets_[id + 1]};
  }

  /// True if a and b are within range of each other and the link is not
  /// currently failed.
  bool LinkUp(NodeId a, NodeId b) const;

  /// True if a and b are within range (ignoring failures): a binary search
  /// in the neighbor list of `a`.
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

  std::vector<Point> positions_;
  double range_m_;
  /// CSR adjacency: node i's neighbors are neighbor_ids_[offsets_[i] ..
  /// offsets_[i + 1]), ascending; offsets_ has num_nodes() + 1 entries.
  std::vector<uint32_t> offsets_;
  std::vector<NodeId> neighbor_ids_;
  std::unordered_set<uint64_t> failed_links_;
  std::unordered_set<uint64_t> outage_links_;
  LinkObserver link_observer_;
  LinkRates default_rates_;
  std::unordered_map<uint64_t, LinkRates> link_rates_;
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_RADIO_H_
