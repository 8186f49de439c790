#include "sensjoin/testbed/report.h"

#include <algorithm>
#include <sstream>

#include "sensjoin/common/logging.h"

namespace sensjoin::testbed {

std::string LoadHeatMap(const net::Placement& placement,
                        const std::vector<uint64_t>& per_node_packets,
                        int columns, int rows) {
  SENSJOIN_CHECK_EQ(placement.positions.size(), per_node_packets.size());
  SENSJOIN_CHECK(columns > 0 && rows > 0);
  const double w = placement.params.area_width_m;
  const double h = placement.params.area_height_m;

  std::vector<uint64_t> cell_max(static_cast<size_t>(columns) * rows, 0);
  uint64_t global_max = 0;
  for (size_t i = 0; i < placement.positions.size(); ++i) {
    global_max = std::max(global_max, per_node_packets[i]);
  }
  auto cell_of = [&](const Point& p) {
    int cx = static_cast<int>(p.x / w * columns);
    int cy = static_cast<int>(p.y / h * rows);
    cx = std::clamp(cx, 0, columns - 1);
    cy = std::clamp(cy, 0, rows - 1);
    return cy * columns + cx;
  };
  for (size_t i = 0; i < placement.positions.size(); ++i) {
    size_t c = cell_of(placement.positions[i]);
    cell_max[c] = std::max(cell_max[c], per_node_packets[i]);
  }

  // Log-ish scale: '.' idle, then ascending intensity.
  const char kScale[] = {'.', ':', '-', '=', '+', '*', '#', '@'};
  std::ostringstream os;
  os << "per-node transmissions (max " << global_max << "), 'B' = base\n";
  const size_t base_cell = cell_of(placement.positions[0]);
  for (int y = rows - 1; y >= 0; --y) {  // north up
    for (int x = 0; x < columns; ++x) {
      const size_t c = static_cast<size_t>(y) * columns + x;
      if (c == base_cell) {
        os << 'B';
        continue;
      }
      const uint64_t v = cell_max[c];
      if (v == 0 || global_max == 0) {
        os << kScale[0];
        continue;
      }
      const double t =
          static_cast<double>(v) / static_cast<double>(global_max);
      int idx = 1 + static_cast<int>(t * 6.999);
      idx = std::clamp(idx, 1, 7);
      os << kScale[idx];
    }
    os << '\n';
  }
  return os.str();
}

std::string TreeSummary(const net::RoutingTree& tree) {
  std::ostringstream os;
  os << "routing tree: " << tree.num_reachable() << "/" << tree.num_nodes()
     << " nodes reachable, max depth " << tree.max_depth() << "\n";
  // Depth histogram.
  std::vector<int> by_depth(tree.max_depth() + 1, 0);
  int leaves = 0;
  int max_fanout = 0;
  double depth_sum = 0;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    if (!tree.InTree(i)) continue;
    ++by_depth[tree.hop_count(i)];
    depth_sum += tree.hop_count(i);
    if (tree.IsLeaf(i)) ++leaves;
    max_fanout = std::max(max_fanout,
                          static_cast<int>(tree.children(i).size()));
  }
  os << "leaves: " << leaves << ", max fan-out: " << max_fanout
     << ", mean depth: " << depth_sum / std::max(1, tree.num_reachable())
     << "\n";
  os << "nodes per depth:";
  for (int d = 0; d <= tree.max_depth(); ++d) os << " " << by_depth[d];
  os << "\n";
  return os.str();
}

std::string CostByDepth(const net::RoutingTree& tree,
                        const join::CostReport& cost) {
  SENSJOIN_CHECK_EQ(static_cast<int>(cost.per_node_packets.size()),
                    tree.num_nodes());
  std::vector<uint64_t> by_depth(tree.max_depth() + 1, 0);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    if (!tree.InTree(i)) continue;
    by_depth[tree.hop_count(i)] += cost.per_node_packets[i];
  }
  std::ostringstream os;
  os << "join-processing transmissions by tree depth (root first):\n";
  uint64_t max_row = 1;
  for (uint64_t v : by_depth) max_row = std::max(max_row, v);
  for (int d = 0; d <= tree.max_depth(); ++d) {
    os << "  depth " << (d < 10 ? " " : "") << d << ": ";
    const int bar = static_cast<int>(48.0 * by_depth[d] / max_row);
    for (int i = 0; i < bar; ++i) os << '#';
    os << " " << by_depth[d] << "\n";
  }
  return os.str();
}

double ResultCompleteness(const join::JoinResult& truth,
                          const join::JoinResult& actual) {
  if (truth.rows.empty()) return 1.0;
  // Multiset match: a degraded run can only lose rows, but duplicates in
  // either result must not inflate the score.
  return static_cast<double>(join::CommonRows(truth.rows, actual.rows)) /
         static_cast<double>(truth.rows.size());
}

std::string FaultToleranceSummary(const join::CostReport& cost,
                                  double completeness) {
  std::ostringstream os;
  os << "join packets: " << cost.join_packets << " (retransmitted "
     << cost.retransmitted_packets << ", acks " << cost.ack_packets << ")\n"
     << "energy: " << cost.energy_mj << " mJ (retransmissions "
     << cost.retransmit_energy_mj << " mJ, acks " << cost.ack_energy_mj
     << " mJ)\n";
  if (cost.corrupted_packets > 0 || cost.undetected_corrupted_packets > 0 ||
      cost.crc_bytes_sent > 0) {
    os << "integrity: " << cost.corrupted_packets
       << " corrupted fragments caught by CRC, "
       << cost.undetected_corrupted_packets << " undetected; trailer "
       << cost.crc_bytes_sent << " B / " << cost.crc_energy_mj
       << " mJ, corruption-triggered retransmissions "
       << cost.integrity_retransmit_energy_mj << " mJ\n";
  }
  if (cost.duplicate_packets > 0 || cost.replayed_packets > 0) {
    os << "delivery: " << cost.duplicate_packets
       << " duplicated deliveries (" << cost.duplicate_energy_mj
       << " mJ), " << cost.replayed_packets << " cross-attempt replays ("
       << cost.replay_energy_mj << " mJ)\n";
  }
  os << "result completeness: " << completeness * 100.0 << "%\n";
  return os.str();
}

}  // namespace sensjoin::testbed
