#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sensjoin/common/logging.h"
#include "sensjoin/common/rng.h"

namespace sensjoin::perf {
namespace {

/// The seed of every workload's placement (the paper's default field).
constexpr uint64_t kPlacementSeed = 42;

std::string SelectList(const std::vector<std::string>& attrs) {
  std::string out;
  for (const std::string& a : attrs) {
    if (!out.empty()) out += ", ";
    out += "A." + a + ", B." + a;
  }
  return out;
}

data::FieldParams Field(double base, double gradient_per_m, int num_bumps,
                        double bump_amplitude, double bump_sigma_m,
                        double noise_sigma) {
  data::FieldParams f;
  f.base = base;
  f.gradient_per_m = gradient_per_m;
  f.num_bumps = num_bumps;
  f.bump_amplitude = bump_amplitude;
  f.bump_sigma_m = bump_sigma_m;
  f.noise_sigma = noise_sigma;
  return f;
}

/// Midpoint between the k-th and (k+1)-th largest of `scores`, with
/// k = round(fraction * size): exactly k scores lie above it unless ties
/// straddle it.
double ThresholdAbove(std::vector<double> scores, double fraction) {
  SENSJOIN_CHECK_GE(scores.size(), 2u);
  const size_t k = std::clamp<size_t>(
      static_cast<size_t>(std::llround(fraction * scores.size())), 1,
      scores.size() - 1);
  std::nth_element(scores.begin(), scores.begin() + k, scores.end(),
                   std::greater<double>());
  const double below = scores[k];
  const double above = *std::min_element(scores.begin(), scores.begin() + k);
  return 0.5 * (above + below);
}

}  // namespace

std::string RatioQueryOneJoinAttr(int attrs_overall, double delta) {
  SENSJOIN_CHECK(attrs_overall >= 1 && attrs_overall <= 6);
  const std::vector<std::string> extras = {"hum", "pres", "light", "x", "y"};
  std::vector<std::string> attrs = {"temp"};
  for (int i = 0; attrs_overall > static_cast<int>(attrs.size()); ++i) {
    attrs.push_back(extras[i]);
  }
  return "SELECT " + SelectList(attrs) +
         " FROM sensors A, sensors B WHERE A.temp - B.temp > " +
         std::to_string(delta) + " ONCE";
}

std::string RatioQueryThreeJoinAttrs(int attrs_overall, double dmin) {
  SENSJOIN_CHECK(attrs_overall >= 3 && attrs_overall <= 6);
  const std::vector<std::string> extras = {"hum", "pres", "light"};
  std::vector<std::string> attrs = {"temp", "x", "y"};
  for (int i = 0; attrs_overall > static_cast<int>(attrs.size()); ++i) {
    attrs.push_back(extras[i]);
  }
  return "SELECT " + SelectList(attrs) +
         " FROM sensors A, sensors B WHERE |A.temp - B.temp| < 0.3 "
         "AND distance(A.x, A.y, B.x, B.y) > " +
         std::to_string(dmin) + " ONCE";
}

std::string SelectiveTempQuery(int k, double delta) {
  return "SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres "
         "FROM sensors A, sensors B WHERE A.hum > -" +
         std::to_string(k) + " AND A.temp - B.temp > " +
         std::to_string(delta) + " ONCE";
}

StatusOr<std::unique_ptr<testbed::Testbed>> CreateDeployment(int num_nodes) {
  testbed::TestbedParams params;
  params.seed = kPlacementSeed;
  params.default_fields = false;
  params.placement.num_nodes = num_nodes;
  // Constant density: the paper's 1500 nodes / (1050 m)^2.
  const double side = 1050.0 * std::sqrt(num_nodes / 1500.0);
  params.placement.area_width_m = side;
  params.placement.area_height_m = side;
  return testbed::Testbed::Create(params);
}

std::unique_ptr<data::NetworkData> MakeSensorData(const testbed::Testbed& tb,
                                                  uint64_t field_seed) {
  const net::PlacementParams& p = tb.params().placement;
  auto data = std::make_unique<data::NetworkData>(
      tb.placement().positions, p.area_width_m, p.area_height_m);
  Rng rng(field_seed);
  data->AddField("temp", Field(20.0, 0.004, 10, 4.0, 180.0, 0.05), rng);
  data->AddField("hum", Field(50.0, 0.01, 8, 8.0, 200.0, 0.2), rng);
  data->AddField("pres", Field(1010.0, 0.005, 4, 6.0, 400.0, 0.1), rng);
  data->AddField("light", Field(500.0, 0.2, 12, 150.0, 120.0, 5.0), rng);
  return data;
}

std::vector<Reading> ReadAll(const data::NetworkData& data, uint64_t epoch) {
  const data::Schema& schema = data.schema();
  const int x = schema.IndexOf("x");
  const int y = schema.IndexOf("y");
  const int temp = schema.IndexOf("temp");
  const int hum = schema.IndexOf("hum");
  SENSJOIN_CHECK(x >= 0 && y >= 0 && temp >= 0 && hum >= 0);
  std::vector<Reading> out;
  out.reserve(data.num_nodes());
  for (sim::NodeId id = 1; id < data.num_nodes(); ++id) {
    const data::Tuple t = data.Sense(id, epoch);
    out.push_back({id, t.values[x], t.values[y], t.values[temp],
                   t.values[hum]});
  }
  return out;
}

double DeltaForNodeFraction(const std::vector<Reading>& r, double fraction) {
  // A node is in the result iff its reading sits more than delta above the
  // coldest node or below the hottest one.
  double lo = r.front().temp;
  double hi = r.front().temp;
  for (const Reading& n : r) {
    lo = std::min(lo, n.temp);
    hi = std::max(hi, n.temp);
  }
  std::vector<double> reach;
  reach.reserve(r.size());
  for (const Reading& n : r) reach.push_back(std::max(n.temp - lo, hi - n.temp));
  return ThresholdAbove(std::move(reach), fraction);
}

std::vector<double> DminForNodeFractions(const std::vector<Reading>& r,
                                         const std::vector<double>& fractions) {
  // A node is in the result iff its farthest partner within 0.3 degrees
  // lies beyond dmin.
  std::vector<double> reach(r.size(), -1.0);
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = i + 1; j < r.size(); ++j) {
      if (std::abs(r[i].temp - r[j].temp) >= 0.3) continue;
      const double d = std::hypot(r[i].x - r[j].x, r[i].y - r[j].y);
      reach[i] = std::max(reach[i], d);
      reach[j] = std::max(reach[j], d);
    }
  }
  std::vector<double> out;
  for (double f : fractions) out.push_back(ThresholdAbove(reach, f));
  return out;
}

double DeltaForPairShare(const std::vector<Reading>& r, double share) {
  std::vector<double> diffs;
  diffs.reserve(r.size() * (r.size() - 1));
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (i != j) diffs.push_back(r[i].temp - r[j].temp);
    }
  }
  return ThresholdAbove(std::move(diffs), share);
}

double AsQueryLiteral(double v) { return std::stod(std::to_string(v)); }

}  // namespace sensjoin::perf
