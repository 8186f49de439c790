#include "sensjoin/testbed/testbed.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "sensjoin/net/flooding.h"

namespace sensjoin::testbed {

StatusOr<std::unique_ptr<Testbed>> Testbed::Create(
    const TestbedParams& params) {
  Rng rng(params.seed);
  SENSJOIN_ASSIGN_OR_RETURN(
      net::ConnectedPlacement connected,
      net::GenerateConnectedPlacement(params.placement, rng));
  net::Placement& placement = connected.placement;

  // The simulator takes over the placement's radio: one neighbor table per
  // deployment.
  auto simulator = std::make_unique<sim::Simulator>(
      std::move(connected.radio), params.packets, params.energy);

  auto env = std::make_unique<data::NetworkData>(
      placement.positions, params.placement.area_width_m,
      params.placement.area_height_m);
  if (params.default_fields) {
    data::FieldParams temp;
    temp.base = 20.0;
    temp.gradient_per_m = 0.004;
    temp.num_bumps = 10;
    temp.bump_amplitude = 4.0;
    temp.bump_sigma_m = 180.0;
    temp.noise_sigma = 0.05;
    env->AddField("temp", temp, rng);

    data::FieldParams hum;
    hum.base = 50.0;
    hum.gradient_per_m = 0.01;
    hum.num_bumps = 8;
    hum.bump_amplitude = 8.0;
    hum.bump_sigma_m = 200.0;
    hum.noise_sigma = 0.2;
    env->AddField("hum", hum, rng);

    data::FieldParams pres;
    pres.base = 1010.0;
    pres.gradient_per_m = 0.005;
    pres.num_bumps = 4;
    pres.bump_amplitude = 6.0;
    pres.bump_sigma_m = 400.0;
    pres.noise_sigma = 0.1;
    env->AddField("pres", pres, rng);

    data::FieldParams light;
    light.base = 500.0;
    light.gradient_per_m = 0.2;
    light.num_bumps = 12;
    light.bump_amplitude = 150.0;
    light.bump_sigma_m = 120.0;
    light.noise_sigma = 5.0;
    env->AddField("light", light, rng);
  }

  net::RoutingTree tree =
      net::RoutingTree::Build(*simulator, placement.base_station_id());

  auto testbed = std::unique_ptr<Testbed>(
      new Testbed(params, std::move(placement), std::move(simulator),
                  std::move(env), std::move(tree), rng.Fork()));
  return testbed;
}

Testbed::Testbed(TestbedParams params, net::Placement placement,
                 std::unique_ptr<sim::Simulator> sim,
                 std::unique_ptr<data::NetworkData> data,
                 net::RoutingTree tree, Rng rng)
    : params_(std::move(params)),
      placement_(std::move(placement)),
      sim_(std::move(sim)),
      data_(std::move(data)),
      tree_(std::move(tree)),
      rng_(rng) {
  // Environment quantization (Sec. V-B: 0.1 degC temperature steps, 1 m
  // coordinate steps; other sensors at sensible environment resolutions).
  quantization_.by_attr["x"] = {0.0, params_.placement.area_width_m, 1.0};
  quantization_.by_attr["y"] = {0.0, params_.placement.area_height_m, 1.0};
  quantization_.by_attr["temp"] = {0.0, 50.0, 0.1};
  quantization_.by_attr["hum"] = {0.0, 100.0, 0.25};
  quantization_.by_attr["pres"] = {950.0, 1060.0, 0.25};
  quantization_.by_attr["light"] = {0.0, 1500.0, 2.0};
}

StatusOr<query::AnalyzedQuery> Testbed::ParseQuery(
    const std::string& sql) const {
  return query::AnalyzedQuery::FromString(sql, data_->schema());
}

int Testbed::DisseminateQuery(const query::AnalyzedQuery& q) {
  const std::vector<char> reached = net::Flood(
      *sim_, tree_.root(), q.QueryWireBytes(), sim::MessageKind::kQuery);
  return static_cast<int>(std::count(reached.begin(), reached.end(), 1));
}

join::SensJoinExecutor Testbed::MakeSensJoin(join::ProtocolConfig config) {
  return join::SensJoinExecutor(*sim_, tree_, *data_, quantization_, config);
}

join::ExternalJoinExecutor Testbed::MakeExternalJoin(
    join::ProtocolConfig config) {
  return join::ExternalJoinExecutor(*sim_, tree_, *data_, config);
}

void Testbed::RebuildTree() {
  tree_ = net::RoutingTree::Build(*sim_, placement_.base_station_id());
}

void Testbed::InjectFaults(const sim::FaultPlan& plan) {
  sim::ApplyFaultPlan(*sim_, plan);
}

}  // namespace sensjoin::testbed
