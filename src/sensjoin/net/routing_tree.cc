#include "sensjoin/net/routing_tree.h"

#include <algorithm>
#include <any>
#include <limits>
#include <utility>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/logging.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::net {
namespace {

/// Beacon payload: the sender's hop count to the root. 4 bytes on the wire
/// (CTP beacons are small control frames).
struct BeaconPayload {
  int hops = 0;
};

constexpr size_t kBeaconBytes = 4;

/// Transient per-node protocol state during a beaconing round.
struct BeaconState {
  int hops = -1;  // best known own hop count; -1 = no route yet
  sim::NodeId parent = sim::kInvalidNode;
  double parent_distance = std::numeric_limits<double>::max();
};

}  // namespace

RoutingTree RoutingTree::Build(sim::Simulator& sim, sim::NodeId root) {
  const int n = sim.num_nodes();
  SENSJOIN_CHECK(root >= 0 && root < n);

  std::vector<BeaconState> state(n);
  state[root].hops = 0;

  auto send_beacon = [&sim](sim::NodeId who, int hops) {
    sim::Message msg;
    msg.src = who;
    msg.kind = sim::MessageKind::kBeacon;
    msg.payload_bytes = kBeaconBytes;
    msg.content = BeaconPayload{hops};
    sim.Broadcast(std::move(msg));
  };

  // Non-beacon deliveries still in flight when a build runs inside an
  // execution (replays released into an attempt) go on to the handler
  // installed before the build, so the exactly-once guard classifies them.
  sim::Simulator::ReceiveHandler previous;
  previous = sim.SetReceiveHandler(
      [&](sim::NodeId receiver, const sim::Message& msg) {
        if (msg.kind != sim::MessageKind::kBeacon) {
          if (previous) previous(receiver, msg);
          return;
        }
        if (receiver == root) return;  // the root never adopts a parent
        const auto& beacon = std::any_cast<const BeaconPayload&>(msg.content);
        const int candidate_hops = beacon.hops + 1;
        BeaconState& s = state[receiver];
        const double dist = Distance(sim.radio().position(receiver),
                                     sim.radio().position(msg.src));
        const bool better =
            s.hops < 0 || candidate_hops < s.hops ||
            (candidate_hops == s.hops &&
             (dist < s.parent_distance ||
              (dist == s.parent_distance && msg.src < s.parent)));
        if (!better) return;
        const bool hops_changed = s.hops != candidate_hops;
        s.hops = candidate_hops;
        s.parent = msg.src;
        s.parent_distance = dist;
        // Re-advertise only when our own metric changed; parent swaps at
        // equal hop count do not affect downstream routes.
        if (hops_changed) send_beacon(receiver, s.hops);
      });

  {
    obs::ScopedPhase span(sim.tracer(), sim.events(),
                          obs::Phase::kTreeBuild);
    send_beacon(root, 0);
    sim.events().Run();
  }
  sim.SetReceiveHandler(std::move(previous));

  RoutingTree tree;
  tree.root_ = root;
  tree.parent_.resize(n, sim::kInvalidNode);
  tree.hops_.resize(n, -1);
  for (int i = 0; i < n; ++i) {
    tree.parent_[i] = state[i].parent;
    tree.hops_[i] = state[i].hops;
  }
  tree.FinalizeFromParents();
  return tree;
}

std::vector<sim::NodeId> RoutingTree::UnreachableNodes() const {
  std::vector<sim::NodeId> out;
  for (sim::NodeId i = 0; i < num_nodes(); ++i) {
    if (hops_[i] < 0) out.push_back(i);
  }
  return out;
}

std::vector<sim::NodeId> RoutingTree::SubtreeNodes(sim::NodeId id) const {
  std::vector<sim::NodeId> out;
  if (id < 0 || id >= num_nodes() || !InTree(id)) return out;
  out.push_back(id);
  for (size_t i = 0; i < out.size(); ++i) {
    for (sim::NodeId c : children_[out[i]]) out.push_back(c);
  }
  return out;
}

bool RoutingTree::IsAncestor(sim::NodeId ancestor, sim::NodeId id) const {
  if (!InTree(ancestor) || !InTree(id)) return false;
  for (sim::NodeId u = id; u != sim::kInvalidNode; u = parent_[u]) {
    if (u == ancestor) return true;
  }
  return false;
}

void RoutingTree::Reparent(sim::NodeId child, sim::NodeId new_parent) {
  SENSJOIN_CHECK(child >= 0 && child < num_nodes());
  SENSJOIN_CHECK(new_parent >= 0 && new_parent < num_nodes());
  SENSJOIN_CHECK(child != root_) << "cannot reparent the root";
  SENSJOIN_CHECK(InTree(new_parent))
      << "re-attach target " << new_parent << " is not in the tree";
  const std::vector<sim::NodeId> subtree = SubtreeNodes(child);
  if (subtree.empty()) {
    // Out-of-tree orphan joining for the first time: it has no descendants
    // (its old subtree was detached or never built).
    parent_[child] = new_parent;
    hops_[child] = hops_[new_parent] + 1;
    FinalizeFromParents();
    return;
  }
  for (sim::NodeId u : subtree) {
    SENSJOIN_CHECK(u != new_parent)
        << "re-attach target " << new_parent << " is inside the subtree of "
        << child << " (would form a routing loop)";
  }
  parent_[child] = new_parent;
  // BFS over the (unchanged) subtree structure re-derives hop counts.
  hops_[child] = hops_[new_parent] + 1;
  for (size_t i = 0; i < subtree.size(); ++i) {
    for (sim::NodeId c : children_[subtree[i]]) hops_[c] = hops_[subtree[i]] + 1;
  }
  FinalizeFromParents();
}

void RoutingTree::Detach(sim::NodeId id) {
  const std::vector<sim::NodeId> subtree = SubtreeNodes(id);
  if (subtree.empty()) return;
  SENSJOIN_CHECK(id != root_) << "cannot detach the root";
  for (sim::NodeId u : subtree) {
    parent_[u] = sim::kInvalidNode;
    hops_[u] = -1;
  }
  FinalizeFromParents();
}

void RoutingTree::FinalizeFromParents() {
  const int n = static_cast<int>(parent_.size());
  children_.assign(n, {});
  subtree_size_.assign(n, 0);
  num_reachable_ = 0;
  max_depth_ = 0;

  for (sim::NodeId i = 0; i < n; ++i) {
    if (hops_[i] < 0) continue;
    ++num_reachable_;
    max_depth_ = std::max(max_depth_, hops_[i]);
    if (parent_[i] != sim::kInvalidNode) children_[parent_[i]].push_back(i);
  }
  for (auto& c : children_) std::sort(c.begin(), c.end());

  // Children-before-parent order: sort in-tree nodes by decreasing depth
  // (ties by id). Within one depth level no node is another's ancestor.
  collection_order_.clear();
  collection_order_.reserve(num_reachable_);
  for (sim::NodeId i = 0; i < n; ++i) {
    if (hops_[i] >= 0) collection_order_.push_back(i);
  }
  std::sort(collection_order_.begin(), collection_order_.end(),
            [this](sim::NodeId a, sim::NodeId b) {
              if (hops_[a] != hops_[b]) return hops_[a] > hops_[b];
              return a < b;
            });
  dissemination_order_.assign(collection_order_.rbegin(),
                              collection_order_.rend());

  for (sim::NodeId id : collection_order_) {
    subtree_size_[id] += 1;  // self
    if (parent_[id] != sim::kInvalidNode) {
      subtree_size_[parent_[id]] += subtree_size_[id];
    }
  }
}

}  // namespace sensjoin::net
