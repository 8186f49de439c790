// sensjoin_bench: runs one benchmark workload against the SENS-Join library
// in a closed loop with one client, checks every op's output, and prints the
// workload's metrics. The last line of stdout is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   sensjoin_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--quick] [--out DIR]
//
// A process sets the workload up three times (setup_s is the median), runs
// variant 0's round unmeasured as a warm-up, then loads its field variants
// one after another and runs a measured round of ops on each. S seconds
// size the rounds from the workload's nominal op time, so the op sequence
// depends on the seed and S alone; --quick instead runs two cycles per
// variant.
//
// --trace 0 reports the end-to-end metrics. --trace 1 replays the layers of
// every op (layers.cc) and reports the per-layer metrics; it also writes
// DIR/NAME.spans.json (host-time spans) and DIR/NAME.trace.json (the
// library's own sim-time trace of the last op run with a tracer attached).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "oracle.h"
#include "sensjoin/sensjoin.h"
#include "workloads.h"

namespace sensjoin::perf {
namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Full set-ups per process; setup_s is their median.
constexpr int kSetups = 3;
/// Measured ops a process makes at least. run.py takes the median of three
/// processes, so a result rests on at least 90 ops.
constexpr size_t kMinOps = 30;
/// A run stops starting ops this long after the process started.
constexpr double kHardStopS = 50.0;

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 5.0;
  bool trace = false;
  bool quick = false;
  std::string out_dir = ".";
};

/// Host times of one set-up.
struct SetupTimes {
  double total_s = 0.0;
  double build_ms = 0.0;         ///< CreateDeployment (Testbed::Create)
  std::vector<double> admit_ms;  ///< one per query parsed or registered
};

/// The sim-time outputs of an op, which repeat when the same cell runs
/// again on the same deployment: integers exactly, energy to 1e-9 relative
/// (its low bits drift with absolute sim time).
struct SimOutputs {
  join::CostReport cost;
  uint64_t matched = 0;
  size_t contributing = 0;
  size_t collected_points = 0;
  size_t filter_points = 0;

  /// `reports` are the per-query reports of the op; `cost` its network cost.
  static SimOutputs Of(const join::CostReport& cost,
                       const std::vector<const join::ExecutionReport*>& reports) {
    SimOutputs d{cost};
    for (const join::ExecutionReport* r : reports) {
      d.matched += r->result.matched_combinations;
      d.contributing += r->result.contributing_nodes.size();
      d.collected_points += r->collected_points;
      d.filter_points += r->filter_points;
    }
    return d;
  }

  bool SameAs(const SimOutputs& o) const {
    const double e = cost.energy_mj;
    const double oe = o.cost.energy_mj;
    return cost.join_packets == o.cost.join_packets &&
           cost.phases.collection_packets == o.cost.phases.collection_packets &&
           cost.phases.filter_packets == o.cost.phases.filter_packets &&
           cost.phases.final_packets == o.cost.phases.final_packets &&
           cost.per_node_packets == o.cost.per_node_packets &&
           matched == o.matched && contributing == o.contributing &&
           collected_points == o.collected_points &&
           filter_points == o.filter_points &&
           std::abs(e - oe) <= 1e-9 * std::max(std::abs(e), std::abs(oe));
  }
};

/// What one op leaves for the metrics.
struct OpRecord {
  /// What repeats on the variant: a one-shot op's cell, a service epoch.
  int cell = 0;
  Clock::time_point begin;
  Clock::time_point end;
  double ms = 0.0;          ///< the whole op
  double library_ms = 0.0;  ///< Execute or RunEpoch alone
  uint64_t events = 0;
  SimOutputs sim;
  uint64_t treecut_exited = 0;
  // Service rollup. A one-shot execution is one bootstrap of a single query
  // whose station time and reporting nodes the replay measures.
  std::optional<double> station_ms;  ///< ServiceEpochReport::station_cpu_s
  uint64_t bootstraps = 1;
  std::optional<uint64_t> changed_nodes;
  uint64_t reuses = 0;
  uint64_t filter_updates = 1;  ///< reuses + incremental + full recomputes
  double sharing_factor = 1.0;
  std::vector<double> admit_ms;  ///< queries registered inside the op
};

Status CheckAgainst(const Expected& expected, const join::JoinResult& got,
                    const std::string& what) {
  const Expected actual{got.matched_combinations,
                        got.contributing_nodes.size()};
  if (actual == expected) return Status::Ok();
  return Status::Internal(
      what + ": oracle expects " + std::to_string(expected.matched) +
      " rows over " + std::to_string(expected.contributing) + " nodes, got " +
      std::to_string(actual.matched) + " over " +
      std::to_string(actual.contributing));
}

/// A benchmark workload: a fixed deployment, `variants` sets of sensor
/// fields drawn from the seed, and the ops a run repeats on each.
class Workload {
 public:
  /// `nominal_op_ms` is an op's host time on the reference host; it sizes
  /// the rounds, so that a run's op sequence depends on the seed alone.
  Workload(int num_nodes, uint64_t seed, int variants, double nominal_op_ms)
      : num_nodes_(num_nodes), nominal_op_ms_(nominal_op_ms) {
    Rng rng(seed);
    for (int v = 0; v < variants; ++v) field_seeds_.push_back(rng.NextUint64());
  }
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Field variants per run. Calibration fixes each variant's result share,
  /// but one field's shape still moves an op's work by a tenth or more, so
  /// a run spreads its ops evenly over the variants.
  int variants() const { return static_cast<int>(field_seeds_.size()); }
  double nominal_op_ms() const { return nominal_op_ms_; }

  /// One full set-up: builds the deployment and loads variant 0 on it.
  Status Setup(SetupTimes* times) {
    Unload();
    data_.reset();
    testbed_.reset();
    const Clock::time_point t0 = Clock::now();
    SENSJOIN_ASSIGN_OR_RETURN(testbed_, CreateDeployment(num_nodes_));
    times->build_ms = MsBetween(t0, Clock::now());
    times->total_s = times->build_ms / 1e3;
    return Load(0, times);
  }

  /// Loads variant `v` on the deployment: its sensor fields, the queries
  /// fitted to them, and an executor or a service session. Adds the host
  /// time of the library calls to times->total_s.
  virtual Status Load(int v, SetupTimes* times) = 0;
  /// Ops per cycle. A round runs whole cycles, op `index` of a round at
  /// position index % cycle() of its cycle.
  virtual int cycle() const = 0;
  /// Runs op `index` of the round with `tracer` attached (if any), timing
  /// only the library calls, and checks the output against the oracle.
  virtual Status Run(int index, obs::Tracer* tracer, OpRecord* rec) = 0;
  /// Replays the layers of the op just run, recording spans for op `op`.
  virtual Status Replay(int op, int parent_span, SpanLog* spans,
                        LayerSample* out) = 0;

 protected:
  /// Drops whatever references the sensor data or the deployment.
  virtual void Unload() = 0;

  /// Replaces the sensor data with variant `v`'s; returns the host time.
  double LoadSensorData(int v) {
    Unload();
    const Clock::time_point t0 = Clock::now();
    data_ = MakeSensorData(*testbed_, field_seeds_[v]);
    return MsBetween(t0, Clock::now());
  }

  std::unique_ptr<testbed::Testbed> testbed_;
  std::unique_ptr<data::NetworkData> data_;

 private:
  int num_nodes_;
  double nominal_op_ms_;
  std::vector<uint64_t> field_seeds_;
};

// ---- One-shot executions -------------------------------------------------

struct Cell {
  std::string sql;
  /// Computes the expected result from the epoch-0 readings.
  std::function<Expected(const std::vector<Reading>&)> oracle;
};

/// Each op is one SensJoinExecutor::Execute of the next cell's query over
/// epoch 0 of the variant's fields.
class OneShotWorkload : public Workload {
 public:
  using CellMaker =
      std::function<std::vector<Cell>(const std::vector<Reading>&)>;

  /// With `widen_temp`, the temp quantizer covers the field's span, as
  /// fig14_network_size --scale does (the paper's [0, 50] range clamps the
  /// readings of large fields into the boundary cells).
  OneShotWorkload(int num_nodes, uint64_t seed, int variants,
                  double nominal_op_ms, bool widen_temp, CellMaker make_cells)
      : Workload(num_nodes, seed, variants, nominal_op_ms),
        widen_temp_(widen_temp),
        make_cells_(std::move(make_cells)) {}

  int cycle() const override { return static_cast<int>(cells_.size()); }

  Status Load(int v, SetupTimes* times) override {
    double ms = LoadSensorData(v);
    if (variant_ != v) {
      // Input generation: fit the queries to the variant's readings.
      variant_ = v;
      readings_ = ReadAll(*data_, 0);
      cells_ = make_cells_(readings_);
      expected_.assign(cells_.size(), std::nullopt);
    }
    const Clock::time_point t0 = Clock::now();
    if (widen_temp_) {
      const net::PlacementParams& p = testbed_->params().placement;
      const double span =
          0.004 * std::hypot(p.area_width_m, p.area_height_m) + 45.0;
      testbed_->mutable_quantization().by_attr["temp"] = {20.0 - span,
                                                          20.0 + span, 0.1};
    }
    for (const Cell& cell : cells_) {
      const Clock::time_point a = Clock::now();
      SENSJOIN_ASSIGN_OR_RETURN(
          query::AnalyzedQuery q,
          query::AnalyzedQuery::FromString(cell.sql, data_->schema()));
      times->admit_ms.push_back(MsBetween(a, Clock::now()));
      queries_.push_back(std::move(q));
    }
    executor_.emplace(testbed_->simulator(), testbed_->tree(), *data_,
                      testbed_->quantization());
    ms += MsBetween(t0, Clock::now());
    times->total_s += ms / 1e3;
    return Status::Ok();
  }

  Status Run(int index, obs::Tracer* tracer, OpRecord* rec) override {
    const int c = rec->cell = index % cycle();
    const sim::EventQueue& events = testbed_->simulator().events();
    if (tracer != nullptr) testbed_->AttachTracer(tracer);
    const uint64_t fired = events.total_fired();
    rec->begin = Clock::now();
    auto report = executor_->Execute(queries_[c], 0);
    rec->end = Clock::now();
    if (tracer != nullptr) testbed_->AttachTracer(nullptr);
    SENSJOIN_RETURN_IF_ERROR(report.status());
    rec->ms = rec->library_ms = MsBetween(rec->begin, rec->end);
    rec->events = events.total_fired() - fired;
    rec->sim = SimOutputs::Of(report->cost, {&*report});
    rec->treecut_exited = report->treecut_exited_nodes;

    std::optional<Expected>& expected = expected_[c];
    if (!expected) expected = cells_[c].oracle(readings_);
    SENSJOIN_RETURN_IF_ERROR(
        CheckAgainst(*expected, report->result, cells_[c].sql));
    last_report_ = std::move(report).value();
    last_cell_ = c;
    return Status::Ok();
  }

  Status Replay(int op, int parent_span, SpanLog* spans,
                LayerSample* out) override {
    return ReplayExecution(*data_, executor_->tree(),
                           testbed_->quantization(), queries_[last_cell_], 0,
                           last_report_, op, parent_span, spans, out);
  }

 private:
  void Unload() override {
    executor_.reset();
    queries_.clear();
  }

  bool widen_temp_;
  CellMaker make_cells_;
  int variant_ = -1;  ///< whose readings, cells and expectations are held
  std::vector<Reading> readings_;
  std::vector<Cell> cells_;
  std::vector<std::optional<Expected>> expected_;
  std::vector<query::AnalyzedQuery> queries_;
  std::optional<join::SensJoinExecutor> executor_;
  join::ExecutionReport last_report_;
  int last_cell_ = 0;
};

// ---- The continuous service ----------------------------------------------

/// Each op is one JoinService::RunEpoch; with `churn`, the op first cancels
/// the oldest query and registers a new one. A round is one long-running
/// session: loading a variant starts a new JoinService on its fields,
/// registers the resident queries and bootstraps (epoch 0), and the round's
/// ops are its epochs 1, 2, ... in turn, so the session grows with the run.
/// The epoch number is the op's cell: the warm-up session on variant 0
/// repeats every epoch of that variant's measured session.
///
/// Query i of a session joins on A.temp - B.temp > delta, with delta
/// putting shares[i % size] of the node pairs into the result at epoch 0.
/// With `churn` it also carries the always-true selection
/// A.hum > -(1000 + i), which gives it a sharing group of its own.
class ServiceWorkload : public Workload {
 public:
  ServiceWorkload(uint64_t seed, int variants, double nominal_op_ms,
                  std::vector<double> shares, int resident, bool churn,
                  bool trace)
      : Workload(kNodes, seed, variants, nominal_op_ms),
        shares_(std::move(shares)),
        resident_count_(resident),
        churn_(churn),
        trace_(trace) {}

  int cycle() const override { return 1; }

  Status Load(int v, SetupTimes* times) override {
    const double data_ms = LoadSensorData(v);
    if (variant_ != v) {
      variant_ = v;
      const std::vector<Reading> readings = ReadAll(*data_, 0);
      deltas_.clear();
      for (double share : shares_) {
        deltas_.push_back(DeltaForPairShare(readings, share));
      }
    }
    double session_ms = 0.0;
    SENSJOIN_RETURN_IF_ERROR(StartSession(&times->admit_ms, &session_ms));
    times->total_s += (data_ms + session_ms) / 1e3;
    return Status::Ok();
  }

  Status Run(int /*index*/, obs::Tracer* tracer, OpRecord* rec) override {
    // The client consumes each epoch's result streams before the next one.
    for (const auto& [id, i] : resident_) {
      service_->registry().GetMutable(id)->reports.clear();
    }
    rec->begin = Clock::now();
    if (churn_) {
      SENSJOIN_RETURN_IF_ERROR(service_->Cancel(resident_.front().first));
      resident_.pop_front();
      SENSJOIN_RETURN_IF_ERROR(Admit(&rec->admit_ms));
    }
    const sim::EventQueue& events = testbed_->simulator().events();
    if (tracer != nullptr) testbed_->AttachTracer(tracer);
    const uint64_t fired = events.total_fired();
    const Clock::time_point epoch_begin = Clock::now();
    auto report = service_->RunEpoch();
    rec->end = Clock::now();
    if (tracer != nullptr) testbed_->AttachTracer(nullptr);
    SENSJOIN_RETURN_IF_ERROR(report.status());
    rec->ms = MsBetween(rec->begin, rec->end);
    rec->library_ms = MsBetween(epoch_begin, rec->end);
    rec->events = events.total_fired() - fired;
    // Treecut is off in the service workloads: treecut_exited stays 0.
    rec->station_ms = report->station_cpu_s * 1e3;
    rec->bootstraps = report->bootstraps;
    rec->changed_nodes = report->changed_nodes;
    rec->reuses = report->filter_reuses;
    rec->filter_updates = report->filter_reuses +
                          report->filter_incremental_updates +
                          report->filter_full_recomputes;
    rec->sharing_factor = report->sharing_factor;
    rec->cell = static_cast<int>(report->epoch);
    last_epoch_ = report->epoch;
    SENSJOIN_ASSIGN_OR_RETURN(rec->sim, CheckEpoch(*report));
    return Status::Ok();
  }

  Status Replay(int op, int parent_span, SpanLog* spans,
                LayerSample* out) override {
    return replay_.ReplayEpoch(*service_, *data_, testbed_->quantization(),
                               last_epoch_, op, parent_span, spans, out);
  }

 private:
  /// svc_service's deployment size.
  static constexpr int kNodes = 250;

  struct QuerySpec {
    std::string sql;
    PairPredicate predicate;
  };

  void Unload() override {
    service_.reset();
    resident_.clear();
  }

  QuerySpec QueryOf(int i) const {
    const double delta = deltas_[i % deltas_.size()];
    const double literal = AsQueryLiteral(delta);
    if (!churn_) {
      return {RatioQueryOneJoinAttr(3, delta), TempDifferenceAbove(literal)};
    }
    const int k = 1000 + i;
    return {SelectiveTempQuery(k, delta),
            SelectiveTempDifferenceAbove(k, literal)};
  }

  /// New JoinService on the variant's fields: registers the resident
  /// queries and runs the bootstrap epoch. `session_ms` is the time of
  /// those library calls.
  Status StartSession(std::vector<double>* admit_ms, double* session_ms) {
    Unload();
    replay_ = ServiceReplay();
    service::ServiceConfig config;
    config.protocol.use_treecut = false;
    const Clock::time_point t0 = Clock::now();
    service_.emplace(testbed_->simulator(), *data_, testbed_->tree(),
                     testbed_->quantization(), config);
    next_query_ = 0;
    for (int i = 0; i < resident_count_; ++i) {
      SENSJOIN_RETURN_IF_ERROR(Admit(admit_ms));
    }
    auto bootstrap = service_->RunEpoch();
    *session_ms = MsBetween(t0, Clock::now());
    SENSJOIN_RETURN_IF_ERROR(bootstrap.status());
    SENSJOIN_RETURN_IF_ERROR(CheckEpoch(*bootstrap).status());
    if (!trace_) return Status::Ok();
    // Keep the replayed filter caches in step from the first epoch on.
    SpanLog discard;
    LayerSample unused;
    return replay_.ReplayEpoch(*service_, *data_, testbed_->quantization(),
                               bootstrap->epoch, -1, -1, &discard, &unused);
  }

  Status Admit(std::vector<double>* admit_ms) {
    const int i = next_query_++;
    const std::string sql = QueryOf(i).sql;
    const Clock::time_point a = Clock::now();
    auto id = service_->Register(sql);
    admit_ms->push_back(MsBetween(a, Clock::now()));
    SENSJOIN_RETURN_IF_ERROR(id.status());
    resident_.emplace_back(*id, i);
    return Status::Ok();
  }

  /// Checks every active query's rows against the brute-force oracle over
  /// the epoch's readings; returns the epoch's sim-time outputs.
  StatusOr<SimOutputs> CheckEpoch(
      const service::ServiceEpochReport& report) const {
    const std::vector<Reading> readings = ReadAll(*data_, report.epoch);
    std::vector<const join::ExecutionReport*> reports;
    size_t rows = 0;
    for (const auto& [id, i] : resident_) {
      SENSJOIN_ASSIGN_OR_RETURN(const service::QueryRecord* record,
                                service_->registry().Get(id));
      if (record->reports.empty()) {
        return Status::Internal("no report for query " + std::to_string(id));
      }
      const join::ExecutionReport& r = record->reports.back();
      SENSJOIN_RETURN_IF_ERROR(CheckAgainst(
          BruteForceJoin(readings, QueryOf(i).predicate), r.result,
          "epoch " + std::to_string(report.epoch) + ", " + record->sql));
      rows += r.result.rows.size();
      reports.push_back(&r);
    }
    if (rows != report.matched_rows) {
      return Status::Internal("epoch rows " +
                              std::to_string(report.matched_rows) +
                              " differ from the per-query rows " +
                              std::to_string(rows));
    }
    return SimOutputs::Of(report.cost, reports);
  }

  std::vector<double> shares_;
  int resident_count_;
  bool churn_;
  bool trace_;
  int variant_ = -1;  ///< whose deltas are held
  std::vector<double> deltas_;
  std::optional<service::JoinService> service_;
  std::deque<std::pair<service::QueryId, int>> resident_;  ///< oldest first
  int next_query_ = 0;
  uint64_t last_epoch_ = 0;
  ServiceReplay replay_;
};

// ---- Workload definitions ------------------------------------------------

/// Fig. 10's result shares: 5, 20 and 60 % of the nodes in the result.
const std::vector<double> kPaperFractions = {0.05, 0.20, 0.60};
/// scale-50k's result share: seed 42's 715 of 49 999 sensor nodes at
/// delta = 0.37 x the quantizer span.
constexpr double kScaleFraction = 715.0 / 49999.0;
/// Shares of the node pairs that svc_service's thresholds 1.0 + 0.05 k,
/// k = 0..7, put into the result on seed 42.
const std::vector<double> kServiceShares = {0.3307, 0.3237, 0.3163, 0.3090,
                                            0.3020, 0.2953, 0.2892, 0.2833};

// Nominal op times are this workload's medians on the reference host
// (4-CPU x86-64 container); they only size the rounds.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool trace) {
  if (name == "paper-1500") {
    return std::make_unique<OneShotWorkload>(
        1500, seed, /*variants=*/12, /*nominal_op_ms=*/27.0,
        /*widen_temp=*/false, [](const std::vector<Reading>& r) {
          std::vector<Cell> cells;
          for (double f : kPaperFractions) {
            const double literal = AsQueryLiteral(DeltaForNodeFraction(r, f));
            cells.push_back({RatioQueryOneJoinAttr(3, literal),
                             [literal](const std::vector<Reading>& rr) {
                               return BruteForceJoin(
                                   rr, TempDifferenceAbove(literal));
                             }});
          }
          for (double dmin : DminForNodeFractions(r, kPaperFractions)) {
            const double literal = AsQueryLiteral(dmin);
            cells.push_back({RatioQueryThreeJoinAttrs(5, literal),
                             [literal](const std::vector<Reading>& rr) {
                               return BruteForceJoin(
                                   rr, CloseTempFarApart(literal));
                             }});
          }
          return cells;
        });
  }
  if (name == "scale-50k") {
    return std::make_unique<OneShotWorkload>(
        50000, seed, /*variants=*/10, /*nominal_op_ms=*/210.0,
        /*widen_temp=*/true, [](const std::vector<Reading>& r) {
          const double literal =
              AsQueryLiteral(DeltaForNodeFraction(r, kScaleFraction));
          return std::vector<Cell>{
              {RatioQueryOneJoinAttr(3, literal),
               [literal](const std::vector<Reading>& rr) {
                 return SortedTempDifferenceJoin(rr, literal);
               }}};
        });
  }
  if (name == "service-16q") {
    return std::make_unique<ServiceWorkload>(
        seed, /*variants=*/4, /*nominal_op_ms=*/90.0, kServiceShares,
        /*resident=*/16, /*churn=*/false, trace);
  }
  if (name == "service-churn") {
    return std::make_unique<ServiceWorkload>(
        seed, /*variants=*/4, /*nominal_op_ms=*/33.0, kServiceShares,
        /*resident=*/4, /*churn=*/true, trace);
  }
  return nullptr;
}

// ---- Statistics and output -----------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void PrintResult(const std::string& workload, bool correct, size_t attempted,
                 size_t failed, const std::vector<Metric>& metrics) {
  std::cout << "\n" << workload << ":\n";
  char line[160];
  for (const Metric& m : metrics) {
    std::snprintf(line, sizeof(line), "  %-44s %16.6f %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    std::cout << line;
  }
  // Failed ops and ops that fail an oracle, repetition or replay check;
  // the JSON result carries it as the `failed` count.
  std::snprintf(line, sizeof(line), "  %-44s %16.6f ratio (%zu of %zu)\n",
                "error_rate", Ratio(failed, attempted), failed, attempted);
  std::cout << line;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << JsonNumber(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// `ops` are whole cycles of every variant, equally many per variant, so
/// the sim-time means weigh every (variant, cell) alike.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             const std::vector<OpRecord>& ops) {
  std::vector<double> ms;
  double busy_ms = 0.0;
  double packets = 0.0;
  double energy = 0.0;
  double max_node = 0.0;
  for (const OpRecord& r : ops) {
    ms.push_back(r.ms);
    busy_ms += r.ms;
    packets += static_cast<double>(r.sim.cost.join_packets);
    energy += r.sim.cost.energy_mj;
    max_node += static_cast<double>(r.sim.cost.max_node_packets());
  }
  const double n = static_cast<double>(ops.size());
  const size_t above_p90 =
      ms.size() - static_cast<size_t>(std::ceil(0.9 * ms.size()));
  std::cout << "\n"
            << ops.size() << " measured ops, " << above_p90
            << " above p90; " << setup_s.size() << " set-ups\n";
  return {
      {"setup_s", "s", Median(setup_s)},
      {"latency_p50_ms", "ms", Median(ms)},
      {"latency_p90_ms", "ms", Percentile(ms, 0.9)},
      {"ops_per_s", "1/s", Ratio(n * 1e3, busy_ms)},
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"join_packets_per_op", "packets", packets / n},
      {"energy_mj_per_op", "mJ", energy / n},
      {"max_node_packets_per_op", "packets", max_node / n},
  };
}

/// Observability layer: one op per cell with the library's tracer attached,
/// then its Chrome-trace export.
struct ObsSample {
  double export_ms = 0.0;
  double events = 0.0;
  double mb = 0.0;
  double overhead_pct = 0.0;
};

/// Per-op means over `ops` and their replays `layers`; ratios are of sums.
std::vector<Metric> PerLayer(const std::vector<OpRecord>& ops,
                             const std::vector<LayerSample>& layers,
                             const std::vector<double>& build_ms,
                             const std::vector<double>& admit_ms,
                             const std::vector<ObsSample>& obs) {
  struct Sums {
    double events = 0, innetwork_ms = 0, station_ms = 0;
    double collection = 0, filter_pk = 0, final_pk = 0, treecut = 0;
    double encode_ms = 0, decode_ms = 0, wire = 0, sets = 0;
    double prune_ms = 0, filter_bytes = 0;
    double filter_ms = 0, collected = 0, filter_points = 0, combos = 0,
           probes = 0;
    double exact_ms = 0, candidates = 0, rows = 0, contributing = 0;
    double bootstraps = 0, changed = 0, reuses = 0, updates = 0, sharing = 0;
  } s;
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    const LayerSample& l = layers[i];
    // One-shot executions report no station time: take the replayed one.
    const double station = r.station_ms.value_or(l.station_ms());
    s.events += static_cast<double>(r.events);
    s.innetwork_ms += r.library_ms - station;
    s.station_ms += station;
    const join::PhaseCosts& phases = r.sim.cost.phases;
    s.collection += static_cast<double>(phases.collection_packets);
    s.filter_pk += static_cast<double>(phases.filter_packets);
    s.final_pk += static_cast<double>(phases.final_packets);
    s.treecut += static_cast<double>(r.treecut_exited);
    s.encode_ms += l.encode_ms;
    s.decode_ms += l.decode_ms;
    s.wire += static_cast<double>(l.wire_bytes);
    s.sets += static_cast<double>(l.sets);
    s.prune_ms += l.prune_ms;
    s.filter_bytes += static_cast<double>(l.filter_bytes);
    s.filter_ms += l.filter_ms;
    s.collected += static_cast<double>(l.collected_points);
    s.filter_points += static_cast<double>(l.filter_points);
    s.combos += static_cast<double>(l.combinations_evaluated);
    s.probes += static_cast<double>(l.index_probes);
    s.exact_ms += l.exact_ms;
    s.candidates += static_cast<double>(l.candidates);
    s.rows += static_cast<double>(l.rows);
    s.contributing += static_cast<double>(l.contributing);
    s.bootstraps += static_cast<double>(r.bootstraps);
    s.changed +=
        static_cast<double>(r.changed_nodes.value_or(l.reporting_nodes));
    s.reuses += static_cast<double>(r.reuses);
    s.updates += static_cast<double>(r.filter_updates);
    s.sharing += r.sharing_factor;
  }
  const double n = static_cast<double>(ops.size());
  auto obs_median = [&](double ObsSample::*field) {
    std::vector<double> v;
    for (const ObsSample& o : obs) v.push_back(o.*field);
    return Median(v);
  };
  return {
      {"sim.events_per_op", "count", s.events / n},
      {"sim.events_per_s", "1/s", Ratio(s.events * 1e3, s.innetwork_ms)},
      {"join.innetwork.ms_per_op", "ms", s.innetwork_ms / n},
      {"join.collection_packets_per_op", "packets", s.collection / n},
      {"join.filter_packets_per_op", "packets", s.filter_pk / n},
      {"join.final_packets_per_op", "packets", s.final_pk / n},
      {"join.treecut_exited_per_op", "count", s.treecut / n},
      {"join.point_set.encode_ms_per_op", "ms", s.encode_ms / n},
      {"join.point_set.decode_ms_per_op", "ms", s.decode_ms / n},
      {"join.point_set.wire_bytes_per_op", "bytes", s.wire / n},
      {"join.point_set.sets_per_op", "count", s.sets / n},
      {"join.dissemination.prune_ms_per_op", "ms", s.prune_ms / n},
      {"join.dissemination.filter_bytes_per_op", "bytes", s.filter_bytes / n},
      {"join.filter_join.ms_per_op", "ms", s.filter_ms / n},
      {"join.filter_join.collected_points", "count", s.collected / n},
      {"join.filter_join.filter_points", "count", s.filter_points / n},
      {"join.filter_join.combinations_evaluated", "count", s.combos / n},
      {"join.filter_join.index_probes", "count", s.probes / n},
      {"join.filter_join.keep_ratio", "ratio",
       Ratio(s.filter_points, s.collected)},
      {"join.exact_join.ms_per_op", "ms", s.exact_ms / n},
      {"join.exact_join.candidates", "count", s.candidates / n},
      {"join.exact_join.rows", "count", s.rows / n},
      {"join.exact_join.ns_per_row", "ns", Ratio(s.exact_ms * 1e6, s.rows)},
      {"join.final.useful_ratio", "ratio",
       Ratio(s.contributing, s.candidates)},
      {"service.station_cpu_ms_per_epoch", "ms", s.station_ms / n},
      {"service.bootstraps_per_epoch", "count", s.bootstraps / n},
      {"service.changed_nodes_per_epoch", "count", s.changed / n},
      {"service.filter_reuse_ratio", "ratio", Ratio(s.reuses, s.updates)},
      {"service.sharing_factor", "ratio", s.sharing / n},
      {"service.register_ms", "ms", Median(admit_ms)},
      {"net.testbed_build_ms", "ms", Median(build_ms)},
      {"obs.export_ms", "ms", obs_median(&ObsSample::export_ms)},
      {"obs.trace_events", "count", obs_median(&ObsSample::events)},
      {"obs.trace_mb", "MB", obs_median(&ObsSample::mb)},
      {"obs.overhead_pct", "%", obs_median(&ObsSample::overhead_pct)},
  };
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt->trace = value == "1";
    } else if (arg == "--out") {
      opt->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) return false;
  }
  return !opt->workload.empty() && opt->seconds > 0.0;
}

int Main(const Options& opt) {
  const Clock::time_point process_start = Clock::now();
  std::unique_ptr<Workload> workload =
      MakeWorkload(opt.workload, opt.seed, opt.trace);
  if (workload == nullptr) {
    std::cerr << "unknown workload: " << opt.workload << "\n";
    return 2;
  }
  size_t attempted = 0;
  size_t failed = 0;
  auto fail = [&](const Status& status) {
    ++failed;
    std::cerr << opt.workload << ": " << status << "\n";
  };
  std::map<std::pair<int, int>, SimOutputs> reference;  // (variant, cell)

  SpanLog spans;
  // Runs op `index` of variant `v`'s round; false after a failure.
  auto run_op = [&](int v, int index, bool measured, obs::Tracer* tracer,
                    OpRecord* rec, LayerSample* sample) {
    ++attempted;
    if (MsBetween(process_start, Clock::now()) > kHardStopS * 1e3) {
      fail(Status::ResourceExhausted("out of time after " +
                                     std::to_string(attempted - 1) + " ops"));
      return false;
    }
    Status status = workload->Run(index, tracer, rec);
    if (status.ok()) {
      // The first run of a cell is its reference; a traced op only adds
      // trace events.
      auto [it, first] = reference.try_emplace({v, rec->cell}, rec->sim);
      if (!first && !rec->sim.SameAs(it->second)) {
        status = Status::Internal(
            "variant " + std::to_string(v) + ", cell " +
            std::to_string(rec->cell) +
            " repeated with different sim-time outputs");
      }
    }
    if (status.ok() && opt.trace && tracer == nullptr) {
      // Warm-up ops are replayed too: the service replay follows its
      // filter caches epoch by epoch.
      SpanLog discard;
      SpanLog* log = measured ? &spans : &discard;
      const int op = static_cast<int>(attempted);
      const int op_span =
          measured ? log->Add("op." + opt.workload, op, rec->begin, rec->end)
                   : -1;
      const int replay_span = log->Open("replay", op, op_span);
      status = workload->Replay(op, replay_span, log, sample);
      log->Close(replay_span);
    }
    if (!status.ok()) fail(status);
    return status.ok();
  };

  // Set-ups, then variant 0's round unmeasured as a warm-up.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::vector<double> admit_ms;
  for (int r = 0; r < kSetups && failed == 0; ++r) {
    SetupTimes times;
    const Status status = workload->Setup(&times);
    if (!status.ok()) {
      ++attempted;
      fail(status);
      break;
    }
    setup_s.push_back(times.total_s);
    build_ms.push_back(times.build_ms);
    admit_ms.insert(admit_ms.end(), times.admit_ms.begin(),
                    times.admit_ms.end());
  }
  if (failed > 0) {
    PrintResult(opt.workload, false, attempted, failed, {});
    return 1;
  }
  const int variants = workload->variants();
  const size_t cycle = static_cast<size_t>(workload->cycle());
  // Ops per round: whole cycles, at least two so that every one-shot cell
  // repeats within its round.
  const size_t per_cycle_set = variants * cycle;
  const size_t cycles =
      opt.quick
          ? 2
          : std::max<size_t>(
                {2, (kMinOps + per_cycle_set - 1) / per_cycle_set,
                 static_cast<size_t>(std::llround(
                     opt.seconds * 1e3 /
                     (per_cycle_set * workload->nominal_op_ms())))});
  const size_t round_ops = cycles * cycle;
  for (size_t i = 0; i < round_ops && failed == 0; ++i) {
    OpRecord rec;
    LayerSample sample;
    run_op(0, static_cast<int>(i), false, nullptr, &rec, &sample);
  }

  // Closed loop, one client: a round of round_ops ops per variant.
  std::vector<OpRecord> ops;
  std::vector<LayerSample> layers;
  int index = 0;
  for (int v = 0; v < variants && failed == 0; ++v) {
    SetupTimes untimed;
    const Status status = workload->Load(v, &untimed);
    if (!status.ok()) {
      ++attempted;
      fail(status);
      break;
    }
    admit_ms.insert(admit_ms.end(), untimed.admit_ms.begin(),
                    untimed.admit_ms.end());
    for (index = 0; index < static_cast<int>(round_ops); ++index) {
      OpRecord rec;
      LayerSample sample;
      if (!run_op(v, index, true, nullptr, &rec, &sample)) break;
      admit_ms.insert(admit_ms.end(), rec.admit_ms.begin(),
                      rec.admit_ms.end());
      ops.push_back(std::move(rec));
      layers.push_back(sample);
    }
  }

  std::vector<ObsSample> obs;
  if (opt.trace && failed == 0) {
    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    // Untimed op times of the last round, by position in the cycle.
    std::vector<std::vector<double>> cell_ms(cycle);
    for (size_t i = 0; i < round_ops; ++i) {
      cell_ms[i % cycle].push_back(ops[ops.size() - round_ops + i].ms);
    }
    const std::string path = opt.out_dir + "/" + opt.workload + ".trace.json";
    for (size_t c = 0; c < cycle; ++c, ++index) {
      obs::Tracer tracer;
      OpRecord rec;
      LayerSample unused;
      if (!run_op(variants - 1, index, false, &tracer, &rec, &unused)) break;
      const Clock::time_point t0 = Clock::now();
      const Status status = obs::WriteChromeTraceFile(tracer, path);
      const double export_ms = MsBetween(t0, Clock::now());
      if (!status.ok()) {
        fail(status);
        break;
      }
      obs.push_back({export_ms, static_cast<double>(tracer.buffer().size()),
                     static_cast<double>(std::filesystem::file_size(path)) /
                         (1024.0 * 1024.0),
                     Ratio(rec.ms, Median(cell_ms[c])) * 100.0 - 100.0});
    }
    const Status written =
        spans.Write(opt.out_dir + "/" + opt.workload + ".spans.json");
    if (!written.ok()) fail(written);
    std::cout << "\nhost-time self time by span (" << opt.workload << ", "
              << ops.size() << " measured ops):\n";
    spans.PrintSelfTimes(std::cout);
  }

  const bool correct = failed == 0 && !ops.empty();
  std::vector<Metric> metrics;
  if (correct) {
    metrics = opt.trace ? PerLayer(ops, layers, build_ms, admit_ms, obs)
                        : EndToEnd(setup_s, ops);
  }
  PrintResult(opt.workload, correct, std::max<size_t>(attempted, 1), failed,
              metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sensjoin::perf

int main(int argc, char** argv) {
  sensjoin::perf::Options opt;
  if (!sensjoin::perf::ParseOptions(argc, argv, &opt)) {
    std::cerr << "usage: sensjoin_bench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--quick] [--out DIR]\n";
    return 2;
  }
  return sensjoin::perf::Main(opt);
}
