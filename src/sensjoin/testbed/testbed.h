#ifndef SENSJOIN_TESTBED_TESTBED_H_
#define SENSJOIN_TESTBED_TESTBED_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sensjoin/common/rng.h"
#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/external_join.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/join/sens_join.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/net/topology.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::testbed {

/// Everything needed to stand up a simulated deployment matching the
/// paper's general setting (Sec. VI): random connected placement, CTP-style
/// routing tree, spatially correlated sensor fields, default quantization.
struct TestbedParams {
  net::PlacementParams placement;  ///< 1500 nodes, 1050x1050 m, 50 m range
  sim::PacketizationParams packets;  ///< 48-byte max packets
  sim::EnergyModel energy;
  uint64_t seed = 42;
  /// Install the default sensor fields (temperature, humidity, pressure,
  /// light). Set false to add custom fields via data().AddField.
  bool default_fields = true;
};

/// A ready-to-run simulated deployment. Owns the simulator, the environment
/// data and the routing tree; hands out executors bound to them.
class Testbed {
 public:
  /// Builds the deployment: places nodes (retrying until connected), moves
  /// the placement's radio into the simulator (one neighbor table per
  /// deployment), runs a beaconing round to establish the routing tree,
  /// creates the fields.
  static StatusOr<std::unique_ptr<Testbed>> Create(const TestbedParams& params);

  sim::Simulator& simulator() { return *sim_; }
  const sim::Simulator& simulator() const { return *sim_; }
  data::NetworkData& data() { return *data_; }
  const net::RoutingTree& tree() const { return tree_; }
  const net::Placement& placement() const { return placement_; }
  const TestbedParams& params() const { return params_; }
  Rng& rng() { return rng_; }

  /// The environment's quantization (Sec. V-B defaults: 0.1 degC for
  /// temperature, 1 m for coordinates).
  const join::QuantizationConfig& quantization() const {
    return quantization_;
  }
  join::QuantizationConfig& mutable_quantization() { return quantization_; }

  /// Parses and analyzes a query against this deployment's schema.
  StatusOr<query::AnalyzedQuery> ParseQuery(const std::string& sql) const;

  /// Floods `q` from the base station (accounted under kQuery) as the real
  /// system would before executing. Each call is a new dissemination epoch,
  /// so a query re-flood after a re-execution reaches the whole field
  /// again. Returns the number of nodes reached.
  int DisseminateQuery(const query::AnalyzedQuery& q);

  /// Executors bound to this deployment. The returned object references the
  /// testbed; keep the testbed alive.
  join::SensJoinExecutor MakeSensJoin(
      join::ProtocolConfig config = join::ProtocolConfig{});
  join::ExternalJoinExecutor MakeExternalJoin(
      join::ProtocolConfig config = join::ProtocolConfig{});

  /// Re-runs beaconing and replaces the stored tree (after injected link
  /// failures).
  void RebuildTree();

  /// Installs a fault scenario (loss rates, ARQ policy, scheduled node
  /// crashes/recoveries) on the deployment's simulator.
  void InjectFaults(const sim::FaultPlan& plan);

  /// Attaches an observability tracer to the deployment's simulator
  /// (nullptr detaches). The tracer is not owned and must outlive the
  /// attachment; it must be private to this testbed's trial — under the
  /// ParallelRunner give every trial its own tracer, like its testbed.
  void AttachTracer(obs::Tracer* tracer) { sim_->set_tracer(tracer); }

 private:
  Testbed(TestbedParams params, net::Placement placement,
          std::unique_ptr<sim::Simulator> sim,
          std::unique_ptr<data::NetworkData> data, net::RoutingTree tree,
          Rng rng);

  TestbedParams params_;
  net::Placement placement_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<data::NetworkData> data_;
  net::RoutingTree tree_;
  join::QuantizationConfig quantization_;
  Rng rng_;
};

}  // namespace sensjoin::testbed

#endif  // SENSJOIN_TESTBED_TESTBED_H_
