#include "sensjoin/net/topology.h"

#include <queue>
#include <string>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::net {
namespace {

/// Marks every node reachable from `root` over the unit-disk graph.
std::vector<char> ReachableFrom(const sim::Radio& radio, sim::NodeId root) {
  std::vector<char> seen(radio.num_nodes(), 0);
  std::queue<sim::NodeId> frontier;
  frontier.push(root);
  seen[root] = 1;
  while (!frontier.empty()) {
    const sim::NodeId u = frontier.front();
    frontier.pop();
    for (sim::NodeId v : radio.Neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        frontier.push(v);
      }
    }
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
    sim::Radio radio(placement.positions, params.range_m);
    std::vector<char> seen = ReachableFrom(radio, 0);
    int unreachable = 0;
    for (int i = 0; i < params.num_nodes; ++i) {
      if (!seen[i]) {
        ++unreachable;
        placement.positions[i] = {rng.UniformDouble(0, params.area_width_m),
                                  rng.UniformDouble(0, params.area_height_m)};
      }
    }
    if (unreachable == 0) {
      return ConnectedPlacement{std::move(placement), std::move(radio)};
    }
  }
  return Status::ResourceExhausted(
      "could not generate a connected placement in " +
      std::to_string(params.max_attempts) + " attempts; density too low?");
}

}  // namespace sensjoin::net
