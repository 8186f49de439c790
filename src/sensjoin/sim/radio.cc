#include "sensjoin/sim/radio.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <unordered_map>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::sim {

namespace {
constexpr int64_t kCellHash = 1'000'003;

LinkRates Clamped(const LinkRates& rates) {
  return LinkRates{std::clamp(rates.loss, 0.0, 1.0),
                   std::clamp(rates.corruption, 0.0, 1.0),
                   std::clamp(rates.duplication, 0.0, 1.0)};
}
}  // namespace

Radio::Radio(std::vector<Point> positions, double range_m,
             RadioOptions options)
    : positions_(std::move(positions)), range_m_(range_m) {
  SENSJOIN_CHECK_GT(range_m_, 0.0);
  const int n = num_nodes();
  materialized_ = options.materialize_threshold < 0 ||
                  n <= options.materialize_threshold;
  // Grid-bucketed neighbor search: O(n) buckets of side `range_m`.
  if (n == 0) return;
  grid_min_x_ = positions_[0].x;
  grid_min_y_ = positions_[0].y;
  for (const Point& p : positions_) {
    grid_min_x_ = std::min(grid_min_x_, p.x);
    grid_min_y_ = std::min(grid_min_y_, p.y);
  }
  grid_.reserve(static_cast<size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    grid_[CellKey(positions_[i])].push_back(i);
  }
  if (!materialized_) return;  // on-demand mode keeps the grid instead
  neighbors_.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    Neighbors(i, neighbors_[i]);
  }
  grid_.clear();
}

int64_t Radio::CellKey(const Point& p) const {
  const int64_t cx = static_cast<int64_t>((p.x - grid_min_x_) / range_m_);
  const int64_t cy = static_cast<int64_t>((p.y - grid_min_y_) / range_m_);
  return cx * kCellHash + cy;
}

void Radio::Neighbors(NodeId id, std::vector<NodeId>& out) const {
  out.clear();
  if (materialized_ && grid_.empty()) {
    const std::vector<NodeId>& list = neighbors_[id];
    out.assign(list.begin(), list.end());
    return;
  }
  const Point& p = positions_[id];
  const int64_t cx = static_cast<int64_t>((p.x - grid_min_x_) / range_m_);
  const int64_t cy = static_cast<int64_t>((p.y - grid_min_y_) / range_m_);
  for (int64_t dx = -1; dx <= 1; ++dx) {
    for (int64_t dy = -1; dy <= 1; ++dy) {
      auto it = grid_.find((cx + dx) * kCellHash + (cy + dy));
      if (it == grid_.end()) continue;
      for (NodeId j : it->second) {
        if (j != id && Distance(p, positions_[j]) <= range_m_) {
          out.push_back(j);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
}

uint64_t Radio::LinkKey(NodeId a, NodeId b) const {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

bool Radio::InRange(NodeId a, NodeId b) const {
  if (a == b) return false;
  if (materialized_) {
    // The neighbor list of `a` is exactly the sorted set of in-range nodes:
    // a binary search replaces the sqrt of the distance computation.
    const std::vector<NodeId>& list = neighbors_[a];
    return std::binary_search(list.begin(), list.end(), b);
  }
  return Distance(positions_[a], positions_[b]) <= range_m_;
}

bool Radio::LinkUp(NodeId a, NodeId b) const {
  return InRange(a, b) && failed_links_.find(LinkKey(a, b)) == failed_links_.end();
}

void Radio::FailLink(NodeId a, NodeId b) {
  if (!ValidLink(a, b)) return;
  failed_links_.insert(LinkKey(a, b));
  if (link_observer_) link_observer_(a, b, /*up=*/false);
}

void Radio::RestoreLink(NodeId a, NodeId b) {
  if (!ValidLink(a, b)) return;
  failed_links_.erase(LinkKey(a, b));
  if (link_observer_) link_observer_(a, b, /*up=*/true);
}

void Radio::SetLinkOutage(NodeId a, NodeId b, bool down) {
  if (!ValidLink(a, b)) return;
  const uint64_t key = LinkKey(a, b);
  const bool changed =
      down ? outage_links_.insert(key).second : outage_links_.erase(key) > 0;
  if (changed && link_observer_) link_observer_(a, b, /*up=*/!down);
}

bool Radio::OutageActive(NodeId a, NodeId b) const {
  return ValidLink(a, b) &&
         outage_links_.find(LinkKey(a, b)) != outage_links_.end();
}

void Radio::set_default_rates(const LinkRates& rates) {
  default_rates_ = Clamped(rates);
}

void Radio::SetLinkRates(NodeId a, NodeId b, const LinkRates& rates) {
  if (!ValidLink(a, b)) return;
  link_rates_[LinkKey(a, b)] = Clamped(rates);
}

LinkRates Radio::Rates(NodeId a, NodeId b) const {
  if (!ValidLink(a, b)) return LinkRates{};
  auto it = link_rates_.find(LinkKey(a, b));
  return it != link_rates_.end() ? it->second : default_rates_;
}

bool Radio::IsConnected(NodeId root) const {
  const int n = num_nodes();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  std::queue<NodeId> frontier;
  std::vector<NodeId> scratch;
  frontier.push(root);
  seen[root] = 1;
  int count = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    const std::vector<NodeId>* nbrs;
    if (materialized_) {
      nbrs = &neighbors_[u];
    } else {
      Neighbors(u, scratch);
      nbrs = &scratch;
    }
    for (NodeId v : *nbrs) {
      if (!seen[v] && LinkUp(u, v)) {
        seen[v] = 1;
        ++count;
        frontier.push(v);
      }
    }
  }
  return count == n;
}

}  // namespace sensjoin::sim
