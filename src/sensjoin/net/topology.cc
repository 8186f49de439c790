#include "sensjoin/net/topology.h"

#include <string>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"

namespace sensjoin::net {
namespace {

/// Marks every node reachable from `root` over the unit-disk graph of
/// `positions` at `range_m` — the graph sim::Radio builds, with the same
/// grid and distance test — without building the neighbor table.
std::vector<char> ReachableFrom(const std::vector<Point>& positions,
                                double range_m, sim::NodeId root) {
  const sim::CellGrid grid(positions, range_m);
  std::vector<char> seen(positions.size(), 0);
  std::vector<sim::NodeId> frontier;
  frontier.reserve(positions.size());
  frontier.push_back(root);
  seen[root] = 1;
  for (size_t head = 0; head < frontier.size(); ++head) {
    const Point& p = positions[frontier[head]];
    grid.ForEachNear(p, [&](sim::NodeId v, const Point& q) {
      if (!seen[v] && Distance(p, q) <= range_m) {
        seen[v] = 1;
        frontier.push_back(v);
      }
    });
  }
  return seen;
}

}  // namespace

StatusOr<ConnectedPlacement> GenerateConnectedPlacement(
    const PlacementParams& params, Rng& rng) {
  if (params.num_nodes < 2) {
    return Status::InvalidArgument("placement needs at least two nodes");
  }
  if (params.area_width_m <= 0 || params.area_height_m <= 0 ||
      params.range_m <= 0) {
    return Status::InvalidArgument("area and range must be positive");
  }

  Placement placement;
  placement.params = params;
  placement.positions.resize(params.num_nodes);

  // Base station position.
  switch (params.base_station) {
    case BaseStationPlacement::kCenter:
      placement.positions[0] = {params.area_width_m / 2,
                                params.area_height_m / 2};
      break;
    case BaseStationPlacement::kCorner:
      placement.positions[0] = {0.0, 0.0};
      break;
  }

  for (int i = 1; i < params.num_nodes; ++i) {
    placement.positions[i] = {rng.UniformDouble(0, params.area_width_m),
                              rng.UniformDouble(0, params.area_height_m)};
  }

  // Iteratively resample nodes that cannot reach the base station; this
  // converges much faster than regenerating whole placements.
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    const std::vector<char> seen =
        ReachableFrom(placement.positions, params.range_m, 0);
    int unreachable = 0;
    for (int i = 0; i < params.num_nodes; ++i) {
      if (!seen[i]) {
        ++unreachable;
        placement.positions[i] = {rng.UniformDouble(0, params.area_width_m),
                                  rng.UniformDouble(0, params.area_height_m)};
      }
    }
    if (unreachable == 0) {
      sim::Radio radio(placement.positions, params.range_m);
      return ConnectedPlacement{std::move(placement), std::move(radio)};
    }
  }
  return Status::ResourceExhausted(
      "could not generate a connected placement in " +
      std::to_string(params.max_attempts) + " attempts; density too low?");
}

}  // namespace sensjoin::net
