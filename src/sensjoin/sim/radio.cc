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

Radio::Radio(std::vector<Point> positions, double range_m)
    : positions_(std::move(positions)), range_m_(range_m) {
  SENSJOIN_CHECK_GT(range_m_, 0.0);
  const int n = num_nodes();
  offsets_.assign(static_cast<size_t>(n) + 1, 0);
  if (n == 0) return;

  // Grid cells of side range_m, numbered row by row. Columns start at 1 and
  // a row holds one spare column on each side, so the three cells of a row
  // around any occupied cell are one contiguous key range.
  double min_x = positions_[0].x;
  double min_y = positions_[0].y;
  for (const Point& p : positions_) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
  }
  auto column = [&](const Point& p) {
    return 1 + static_cast<int64_t>((p.x - min_x) / range_m_);
  };
  int64_t max_column = 0;
  for (const Point& p : positions_) {
    max_column = std::max(max_column, column(p));
  }
  const int64_t row_width = max_column + 2;
  // (cell key, node id), sorted: every cell is one run, rows in order.
  std::vector<std::pair<int64_t, NodeId>> sorted(n);
  for (NodeId i = 0; i < n; ++i) {
    const Point& p = positions_[i];
    const int64_t row = static_cast<int64_t>((p.y - min_y) / range_m_);
    sorted[i] = {row * row_width + column(p), i};
  }
  std::sort(sorted.begin(), sorted.end());

  // Fill cell by cell: the candidates of a cell are the three key ranges
  // of the rows below, at and above it. Cells come in ascending key order,
  // so each row's range only moves forward. Lists land in sorted order
  // first and are scattered to node order below.
  std::vector<NodeId> found;
  found.reserve(static_cast<size_t>(n) * 16);
  std::vector<uint32_t> found_start(static_cast<size_t>(n) + 1, 0);
  size_t row_lo[3] = {0, 0, 0};
  size_t row_hi[3] = {0, 0, 0};
  for (size_t cs = 0; cs < sorted.size();) {
    const int64_t key = sorted[cs].first;
    size_t ce = cs;
    while (ce < sorted.size() && sorted[ce].first == key) ++ce;
    for (int r = 0; r < 3; ++r) {
      const int64_t lo_key = key + (r - 1) * row_width - 1;
      while (row_lo[r] < sorted.size() && sorted[row_lo[r]].first < lo_key) {
        ++row_lo[r];
      }
      row_hi[r] = std::max(row_hi[r], row_lo[r]);
      while (row_hi[r] < sorted.size() &&
             sorted[row_hi[r]].first <= lo_key + 2) {
        ++row_hi[r];
      }
    }
    for (size_t s = cs; s < ce; ++s) {
      const NodeId i = sorted[s].second;
      const Point& p = positions_[i];
      found_start[s] = static_cast<uint32_t>(found.size());
      for (int r = 0; r < 3; ++r) {
        for (size_t t = row_lo[r]; t < row_hi[r]; ++t) {
          const NodeId j = sorted[t].second;
          if (j != i && Distance(p, positions_[j]) <= range_m_) {
            found.push_back(j);
          }
        }
      }
      offsets_[i + 1] = static_cast<uint32_t>(found.size() - found_start[s]);
    }
    cs = ce;
  }
  found_start[n] = static_cast<uint32_t>(found.size());
  SENSJOIN_CHECK_LE(found.size(), size_t{UINT32_MAX});

  for (NodeId i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];
  neighbor_ids_.resize(found.size());
  for (size_t s = 0; s < sorted.size(); ++s) {
    const NodeId i = sorted[s].second;
    auto out = neighbor_ids_.begin() + offsets_[i];
    std::copy(found.begin() + found_start[s],
              found.begin() + found_start[s + 1], out);
    std::sort(out, neighbor_ids_.begin() + offsets_[i + 1]);
  }
}

uint64_t Radio::LinkKey(NodeId a, NodeId b) const {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

bool Radio::InRange(NodeId a, NodeId b) const {
  const std::span<const NodeId> list = Neighbors(a);
  return std::binary_search(list.begin(), list.end(), b);
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
  frontier.push(root);
  seen[root] = 1;
  int count = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : Neighbors(u)) {
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
