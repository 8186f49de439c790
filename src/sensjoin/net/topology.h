#ifndef SENSJOIN_NET_TOPOLOGY_H_
#define SENSJOIN_NET_TOPOLOGY_H_

#include <vector>

#include "sensjoin/common/geometry.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/common/statusor.h"
#include "sensjoin/sim/radio.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::net {

/// Where to put the powered base station within the deployment area.
/// The default is a corner: WSN deployments typically have the access point
/// at the field edge, and the paper's reported packet counts imply a deep
/// routing tree (average depth well above the center-placement value).
enum class BaseStationPlacement {
  kCorner,  ///< Lower-left corner (default).
  kCenter,  ///< Middle of the area.
};

/// Parameters for a random node deployment, matching the paper's setting:
/// stationary nodes uniformly placed in a rectangle, fixed communication
/// range, node 0 is the base station.
struct PlacementParams {
  int num_nodes = 1500;
  double area_width_m = 1050.0;
  double area_height_m = 1050.0;
  double range_m = 50.0;
  BaseStationPlacement base_station = BaseStationPlacement::kCorner;
  /// How many whole-placement retries before giving up on connectivity.
  int max_attempts = 50;
};

/// A concrete deployment: node positions (node 0 is the base station) plus
/// the parameters that produced it.
struct Placement {
  PlacementParams params;
  std::vector<sensjoin::Point> positions;

  sim::NodeId base_station_id() const { return 0; }
};

/// A connected placement with its radio, built over the final positions:
/// the deployment's one neighbor table, ready to move into a sim::Simulator.
struct ConnectedPlacement {
  Placement placement;
  sim::Radio radio;
};

/// Generates a uniformly random placement whose unit-disk graph (at
/// params.range_m) is connected to the base station. Each attempt searches
/// the graph from the base station over a cell grid of the current
/// positions and resamples the nodes it cannot reach; the radio is built
/// once, over the connected positions, and returned. Returns an error
/// if a connected placement cannot be found within params.max_attempts
/// (e.g., the density is far too low).
StatusOr<ConnectedPlacement> GenerateConnectedPlacement(
    const PlacementParams& params, Rng& rng);

}  // namespace sensjoin::net

#endif  // SENSJOIN_NET_TOPOLOGY_H_
