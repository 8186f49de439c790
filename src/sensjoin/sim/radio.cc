#include "sensjoin/sim/radio.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::sim {

namespace {

LinkRates Clamped(const LinkRates& rates) {
  return LinkRates{std::clamp(rates.loss, 0.0, 1.0),
                   std::clamp(rates.corruption, 0.0, 1.0),
                   std::clamp(rates.duplication, 0.0, 1.0)};
}

}  // namespace

CellGrid::CellGrid(const std::vector<Point>& positions, double range_m) {
  const size_t n = positions.size();
  if (n == 0) return;
  min_x_ = positions[0].x;
  min_y_ = positions[0].y;
  double max_x = min_x_;
  double max_y = min_y_;
  for (const Point& p : positions) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  // Wider cells only add candidates; the bound keeps start_ small. The
  // side starts a hair over range_m so that rounding in the cell arithmetic
  // cannot put two nodes within range_m two cells apart.
  const double max_cells = 4.0 * static_cast<double>(n) + 16.0;
  for (side_ = range_m * (1.0 + 1e-6);; side_ *= 2) {
    columns_ = 1 + Column({max_x, min_y_});
    rows_ = 1 + Row({min_x_, max_y});
    if (static_cast<double>(columns_) * static_cast<double>(rows_) <=
        max_cells) {
      break;
    }
  }

  // Counting sort by cell, stable, so each cell's ids stay ascending.
  start_.assign(static_cast<size_t>(columns_ * rows_) + 1, 0);
  std::vector<uint32_t> cell(n);
  for (size_t i = 0; i < n; ++i) {
    cell[i] = static_cast<uint32_t>(Row(positions[i]) * columns_ +
                                    Column(positions[i]));
    ++start_[cell[i] + 1];
  }
  for (size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
  ids_.resize(n);
  points_.resize(n);
  std::vector<uint32_t> next(start_.begin(), start_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t at = next[cell[i]]++;
    ids_[at] = static_cast<NodeId>(i);
    points_[at] = positions[i];
  }
}

Radio::Radio(std::vector<Point> positions, double range_m)
    : positions_(std::move(positions)), range_m_(range_m) {
  SENSJOIN_CHECK_GT(range_m_, 0.0);
  const int n = num_nodes();
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  const CellGrid grid(positions_, range_m_);
  for (NodeId i = 0; i < n; ++i) {
    const Point& p = positions_[i];
    const size_t first = neighbor_ids_.size();
    grid.ForEachNear(p, [&](NodeId j, const Point& q) {
      if (j != i && Distance(p, q) <= range_m_) neighbor_ids_.push_back(j);
    });
    std::sort(neighbor_ids_.begin() + first, neighbor_ids_.end());
    SENSJOIN_CHECK_LE(neighbor_ids_.size(), size_t{UINT32_MAX});
    offsets_[i + 1] = static_cast<uint32_t>(neighbor_ids_.size());
  }
  neighbor_ids_.shrink_to_fit();
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
  frontier.push(root);
  seen[root] = 1;
  int count = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : Neighbors(u)) {
      if (!seen[v] && !LinkFailed(u, v)) {
        seen[v] = 1;
        ++count;
        frontier.push(v);
      }
    }
  }
  return count == n;
}

}  // namespace sensjoin::sim
