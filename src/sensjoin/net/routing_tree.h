#ifndef SENSJOIN_NET_ROUTING_TREE_H_
#define SENSJOIN_NET_ROUTING_TREE_H_

#include <vector>

#include "sensjoin/sim/simulator.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::net {

/// A collection routing tree in the style of the TinyOS Collection Tree
/// Protocol: every node maintains a parent minimizing the hop count to the
/// base station, established by beaconing (Sec. III "Query Processing").
///
/// The tree is a snapshot of the beaconing round; global topology changes
/// call for a new Build, but localized failures can be patched in place
/// with the repair mutators (Reparent / Detach) that
/// net/tree_maintenance.h drives — every mutator re-derives the children
/// lists, subtree sizes and traversal orders, so the snapshot invariants
/// keep holding after a repair.
class RoutingTree {
 public:
  /// Runs a beaconing round on `sim` and returns the resulting tree rooted
  /// at `root`. Beacon transmissions are accounted under
  /// MessageKind::kBeacon (tree maintenance, excluded from join costs).
  /// Nodes that cannot reach the root over up links end up without a parent.
  /// Ties between equal-hop parents are broken by link distance, then id,
  /// so construction is deterministic.
  static RoutingTree Build(sim::Simulator& sim, sim::NodeId root);

  sim::NodeId root() const { return root_; }

  /// Parent of `id`, or kInvalidNode for the root and unreachable nodes.
  sim::NodeId parent(sim::NodeId id) const { return parent_[id]; }

  const std::vector<sim::NodeId>& children(sim::NodeId id) const {
    return children_[id];
  }

  /// Hops to the root; 0 for the root, -1 if unreachable.
  int hop_count(sim::NodeId id) const { return hops_[id]; }

  bool InTree(sim::NodeId id) const { return hops_[id] >= 0; }
  bool IsLeaf(sim::NodeId id) const {
    return InTree(id) && children_[id].empty();
  }

  int num_nodes() const { return static_cast<int>(parent_.size()); }

  /// Number of nodes with a route to the root (including the root).
  int num_reachable() const { return num_reachable_; }

  /// Number of nodes in the subtree rooted at `id` (itself included);
  /// 0 for unreachable nodes. descendants(id) == subtree_size(id) - 1.
  int subtree_size(sim::NodeId id) const { return subtree_size_[id]; }

  /// Deepest hop count in the tree.
  int max_depth() const { return max_depth_; }

  /// In-tree nodes ordered children-before-parent (root last). This is the
  /// order in which a staged leaf-to-root collection proceeds.
  const std::vector<sim::NodeId>& collection_order() const {
    return collection_order_;
  }

  /// In-tree nodes ordered parent-before-children (root first): the order of
  /// a top-down dissemination.
  const std::vector<sim::NodeId>& dissemination_order() const {
    return dissemination_order_;
  }

  /// Nodes without a route to the root, ascending by id. Non-empty on
  /// partially-connected fields; join executors count these against result
  /// completeness instead of waiting for them.
  std::vector<sim::NodeId> UnreachableNodes() const;

  // --- Repair mutators (used by net/tree_maintenance.h) ------------------

  /// All nodes of the subtree rooted at `id` (itself included), in BFS
  /// order; empty when `id` is not in the tree.
  std::vector<sim::NodeId> SubtreeNodes(sim::NodeId id) const;

  /// True when `ancestor` lies on `id`'s path to the root (a node is its
  /// own ancestor). False for out-of-tree nodes.
  bool IsAncestor(sim::NodeId ancestor, sim::NodeId id) const;

  /// Re-attaches the subtree rooted at `child` under `new_parent`,
  /// re-deriving hop counts, children lists, subtree sizes and the
  /// traversal orders. `new_parent` must be in the tree and must not be
  /// inside `child`'s subtree (loop freedom is the caller's contract;
  /// violating it is a CHECK failure, not a cycle).
  void Reparent(sim::NodeId child, sim::NodeId new_parent);

  /// Removes the subtree rooted at `id` from the tree: every node in it
  /// becomes unreachable (hops -1, no parent). No-op for out-of-tree ids.
  void Detach(sim::NodeId id);

 private:
  RoutingTree() = default;
  void FinalizeFromParents();

  sim::NodeId root_ = sim::kInvalidNode;
  std::vector<sim::NodeId> parent_;
  std::vector<int> hops_;
  std::vector<std::vector<sim::NodeId>> children_;
  std::vector<int> subtree_size_;
  std::vector<sim::NodeId> collection_order_;
  std::vector<sim::NodeId> dissemination_order_;
  int num_reachable_ = 0;
  int max_depth_ = 0;
};

}  // namespace sensjoin::net

#endif  // SENSJOIN_NET_ROUTING_TREE_H_
