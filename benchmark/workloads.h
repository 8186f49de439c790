#ifndef SENSJOIN_BENCHMARK_WORKLOADS_H_
#define SENSJOIN_BENCHMARK_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/testbed/testbed.h"

namespace sensjoin::perf {

// Query builders. The first two are copies of bench/util/workloads.cc, so
// this package builds against the library alone.

/// The paper's generic query with ONE join attribute (temp) and
/// `attrs_overall` attributes per relation: A.temp - B.temp > `delta`.
std::string RatioQueryOneJoinAttr(int attrs_overall, double delta);

/// The same with THREE join attributes (temp, x, y):
/// |A.temp - B.temp| < 0.3 AND distance(A, B) > `dmin`.
std::string RatioQueryThreeJoinAttrs(int attrs_overall, double dmin);

/// A one-attribute temp join with its own always-true selection
/// `A.hum > -k`: every distinct `k` gives the query its own sharing
/// signature, so the service runs it in a group of its own.
std::string SelectiveTempQuery(int k, double delta);

// Deployments. The placement and routing tree of a workload are fixed: they
// are the seed-42 deployment of its size (the paper's default field at
// 1500 nodes, the area scaled to keep the density at other sizes). The
// workload seed draws the sensor fields. Topology sets the per-node hot
// spot (max_node_packets), which would otherwise swing by a third between
// seeds.

/// Builds the deployment of `num_nodes` nodes. It senses nothing: its
/// executors read the fields of MakeSensorData.
StatusOr<std::unique_ptr<testbed::Testbed>> CreateDeployment(int num_nodes);

/// The default sensor fields (temp, hum, pres, light, with the parameters
/// of Testbed::Create) over `tb`'s nodes, drawn from `field_seed`.
std::unique_ptr<data::NetworkData> MakeSensorData(const testbed::Testbed& tb,
                                                  uint64_t field_seed);

// Calibration. Every workload derives its query parameters from the seed's
// epoch-0 readings, so a given result share holds on every seed (the
// paper's fixed constants hold on seed 42 only). Node 0 is the base station
// and contributes no tuple.

/// Sensor readings of one epoch, node 0 excluded.
struct Reading {
  sim::NodeId node = 0;
  double x = 0.0;
  double y = 0.0;
  double temp = 0.0;
  double hum = 0.0;
};
std::vector<Reading> ReadAll(const data::NetworkData& data, uint64_t epoch);

/// The delta at which `A.temp - B.temp > delta` puts `fraction` of the
/// nodes into the result.
double DeltaForNodeFraction(const std::vector<Reading>& r, double fraction);

/// The dmins at which the three-attribute query puts each of `fractions`
/// of the nodes into the result.
std::vector<double> DminForNodeFractions(const std::vector<Reading>& r,
                                         const std::vector<double>& fractions);

/// The delta at which `share` of the ordered node pairs satisfy
/// `A.temp - B.temp > delta` (sets the size of the exact join result).
double DeltaForPairShare(const std::vector<Reading>& r, double share);

/// The literal a query text carries for `v` (std::to_string, six decimals),
/// read back as the parser reads it.
double AsQueryLiteral(double v);

}  // namespace sensjoin::perf

#endif  // SENSJOIN_BENCHMARK_WORKLOADS_H_
