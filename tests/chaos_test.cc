// Chaos soak for the self-healing execution path: many seeded fault
// schedules composing all six fault axes (crashes, transient link outages,
// loss bursts, duplication, delay-jitter reordering, cross-attempt replay)
// run against the soundness invariants of testbed/chaos.h — including
// exactly-once row accounting and the no-stall liveness bounds — plus
// determinism regressions: the same chaos sweep must be byte-identical
// across thread counts and across repeated runs, and a fault-free run with
// every self-healing feature enabled must be bit-identical to one with the
// default config. The continuous join service runs the same swarm across
// epochs, with admission churn, against a brute-force per-epoch oracle. On
// the first invariant violation a soak prints a minimized reproducer
// schedule as JSON.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"
#include "sensjoin/join/alt_baselines.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/obs/trace.h"
#include "sensjoin/query/expr_eval.h"
#include "sensjoin/sensjoin.h"
#include "sensjoin/testbed/chaos.h"
#include "sensjoin/testbed/parallel.h"
#include "sensjoin/testbed/service_harness.h"

namespace sensjoin::testbed {
namespace {

constexpr const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.5 "
    "AND distance(A.x, A.y, B.x, B.y) > 100 ONCE";

TestbedParams SmallDeployment(uint64_t seed) {
  TestbedParams params;
  params.placement.num_nodes = 60;
  params.placement.area_width_m = 260;
  params.placement.area_height_m = 260;
  params.seed = seed;
  return params;
}

join::ProtocolConfig SelfHealingConfig() {
  join::ProtocolConfig config;
  config.self_healing = true;
  return config;
}

/// Six-axis swarm parameters: the pre-existing crash/outage/loss defaults
/// plus the delivery-semantics axes (duplication, jitter reordering,
/// cross-attempt replay) at rates high enough to be exercised on every
/// schedule.
ChaosParams SwarmParams(uint64_t seed) {
  ChaosParams params;
  params.seed = seed;
  params.duplication_rate = 0.05;
  params.max_jitter_s = 0.005;
  params.enable_replay = true;
  return params;
}

/// Generous sim-time ceilings: orders of magnitude above a healthy run's
/// millisecond-scale phases, so only a genuine stall (a repair or recovery
/// loop that stops making progress) trips them.
LivenessBounds SwarmLiveness() {
  LivenessBounds bounds;
  bounds.max_phase_span_s = 30.0;
  bounds.max_total_s = 60.0;
  return bounds;
}

// TraceDigest / ExecutionFingerprint live in testbed/chaos.h, shared with
// the benches that replay a run.

struct TrialOutcome {
  std::string fingerprint;
  std::vector<std::string> violations;
  size_t repairs_attempted = 0;
  size_t repairs_succeeded = 0;
  size_t watchdog_expirations = 0;
  size_t duplicate_deliveries = 0;
  size_t reordered_messages = 0;
  size_t stale_messages_dropped = 0;
  uint64_t duplicate_packets = 0;
  uint64_t replayed_packets = 0;
  size_t attempts = 0;
  bool degraded = false;
  bool success = false;
  double coverage = 0.0;
};

/// One chaos trial: an independent small deployment (seeded by
/// `params.seed`), a schedule drawn from `params`, one self-healing
/// execution checked against the ground truth and the no-stall liveness
/// bounds. `external` runs the external-join executor instead of SENS-Join.
StatusOr<TrialOutcome> RunChaosTrial(const ChaosParams& params,
                                     bool external) {
  auto tb = Testbed::Create(SmallDeployment(params.seed));
  SENSJOIN_RETURN_IF_ERROR(tb.status());
  auto q = (*tb)->ParseQuery(kQuery);
  SENSJOIN_RETURN_IF_ERROR(q.status());
  (*tb)->DisseminateQuery(*q);

  const ChaosSchedule schedule = MakeChaosSchedule(**tb, params);
  ApplyChaos(**tb, schedule);

  obs::Tracer tracer;
  (*tb)->AttachTracer(&tracer);
  StatusOr<join::ExecutionReport> report =
      external ? (*tb)->MakeExternalJoin(SelfHealingConfig()).Execute(*q, 0)
               : (*tb)->MakeSensJoin(SelfHealingConfig()).Execute(*q, 0);
  (*tb)->AttachTracer(nullptr);
  SENSJOIN_RETURN_IF_ERROR(report.status());

  const join::JoinResult truth = ComputeGroundTruth(**tb, *q, 0);
  const LivenessBounds liveness = SwarmLiveness();
  TrialOutcome outcome;
  outcome.violations = CheckInvariants(truth, *report, &tracer, &liveness);
  outcome.fingerprint = ExecutionFingerprint(*report, &tracer);
  outcome.repairs_attempted = report->repairs_attempted;
  outcome.repairs_succeeded = report->repairs_succeeded;
  outcome.watchdog_expirations = report->watchdog_expirations;
  outcome.duplicate_deliveries = report->duplicate_deliveries;
  outcome.reordered_messages = report->reordered_messages;
  outcome.stale_messages_dropped = report->stale_messages_dropped;
  outcome.duplicate_packets = report->total_cost.duplicate_packets;
  outcome.replayed_packets = report->total_cost.replayed_packets;
  outcome.attempts = static_cast<size_t>(report->attempts);
  outcome.degraded = report->certificate.degraded;
  outcome.success = report->success;
  outcome.coverage = report->certificate.coverage();
  return outcome;
}

/// Greedily minimizes a violating schedule and renders it as the JSON
/// reproducer. Deterministic: re-derives each candidate schedule from
/// scratch.
std::string MinimizedReproducer(const ChaosParams& params, bool external) {
  const auto reproduces = [external](const ChaosParams& candidate) {
    auto o = RunChaosTrial(candidate, external);
    return o.ok() && !o->violations.empty();
  };
  const ChaosParams minimal = MinimizeChaos(params, reproduces);
  auto tb = Testbed::Create(SmallDeployment(minimal.seed));
  if (!tb.ok()) return "(reproducer testbed failed)";
  auto q = (*tb)->ParseQuery(kQuery);
  if (!q.ok()) return "(reproducer query failed)";
  (*tb)->DisseminateQuery(*q);
  return ChaosScheduleToJson(minimal, MakeChaosSchedule(**tb, minimal));
}

void SoakExecutor(bool external, int num_trials, uint64_t sweep_seed) {
  ParallelRunner runner(0);  // flag/env/hardware
  auto outcomes =
      runner.Run(num_trials, sweep_seed, [&](const TrialContext& ctx) {
        auto o = RunChaosTrial(SwarmParams(ctx.seed), external);
        EXPECT_TRUE(o.ok()) << "trial " << ctx.trial << ": " << o.status();
        return o.ok() ? *o : TrialOutcome{};
      });
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();

  size_t repairs = 0;
  size_t succeeded = 0;
  size_t degraded = 0;
  size_t duplicates = 0;
  size_t reordered = 0;
  uint64_t dup_packets = 0;
  bool dumped_reproducer = false;
  for (int i = 0; i < num_trials; ++i) {
    const TrialOutcome& o = (*outcomes)[static_cast<size_t>(i)];
    // With graceful degradation enabled an execution must always complete;
    // partial coverage is certified, never an abort.
    EXPECT_TRUE(o.success) << "trial " << i << " did not complete";
    for (const std::string& v : o.violations) {
      ADD_FAILURE() << "trial " << i << ": " << v;
    }
    if (!o.violations.empty() && !dumped_reproducer) {
      // First violation: print a minimized schedule so the failure can be
      // replayed standalone without re-running the whole swarm.
      dumped_reproducer = true;
      const uint64_t trial_seed =
          DeriveTrialSeed(sweep_seed, static_cast<uint64_t>(i));
      ADD_FAILURE() << "reproducer: "
                    << MinimizedReproducer(SwarmParams(trial_seed), external);
    }
    repairs += o.repairs_attempted;
    succeeded += o.repairs_succeeded;
    degraded += o.degraded ? 1u : 0u;
    duplicates += o.duplicate_deliveries;
    reordered += o.reordered_messages;
    dup_packets += o.duplicate_packets;
  }
  // Non-vacuity: across the sweep the chaos must actually have exercised
  // the repair path, the degradation path and every delivery-semantics
  // axis the guard defends against (deterministic: fixed seeds).
  EXPECT_GT(repairs, 0u);
  EXPECT_GT(succeeded, 0u);
  EXPECT_GT(degraded, 0u);
  EXPECT_GT(duplicates, 0u);
  EXPECT_GT(reordered, 0u);
  EXPECT_GT(dup_packets, 0u);
}

TEST(ChaosSoakTest, FiftySchedulesSensJoinHoldInvariants) {
  SoakExecutor(/*external=*/false, /*num_trials=*/50, /*sweep_seed=*/1009);
}

TEST(ChaosSoakTest, ExternalJoinHoldsInvariants) {
  SoakExecutor(/*external=*/true, /*num_trials=*/12, /*sweep_seed=*/2027);
}

// A result row holding a NaN must match itself: the multiset checks order
// rows by IEEE-754 total order and treat bitwise-equal rows as equal.
TEST(CheckInvariantsTest, RowsHoldingNaNMatchThemselves) {
  auto q = query::AnalyzedQuery::FromString(
      "SELECT sqrt(A.temp - B.temp), B.hum FROM s A, s B "
      "WHERE |A.temp - B.temp| < 3 ONCE",
      data::Schema({{"temp", 2}, {"hum", 2}}));
  ASSERT_TRUE(q.ok()) << q.status();
  Rng rng(11);
  std::vector<data::Tuple> tuples(40);
  std::vector<const data::Tuple*> side;
  for (size_t i = 0; i < tuples.size(); ++i) {
    tuples[i].node = static_cast<sim::NodeId>(i + 1);
    tuples[i].values = {rng.UniformDouble(18, 26), rng.UniformDouble(20, 80)};
    side.push_back(&tuples[i]);
  }
  join::ExecutionReport report;
  report.success = true;
  report.result = join::ComputeExactJoin(*q, {side, side});
  const join::JoinResult& truth = report.result;
  ASSERT_TRUE(std::any_of(truth.rows.begin(), truth.rows.end(),
                          [](std::span<const double> row) {
                            return std::isnan(row[0]);
                          }));
  for (const std::string& v : CheckInvariants(truth, report)) {
    ADD_FAILURE() << v;
  }
  EXPECT_EQ(ResultCompleteness(truth, report.result), 1.0);
}

// ---- Continuous service under chaos ---------------------------------------

/// The first two queries share one sharing group (same relations, no
/// selections, same join attributes) and differ in their join predicates;
/// the third's selection gives it a group of its own.
constexpr const char* kServiceQueries[] = {
    kQuery,
    "SELECT A.temp, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 60 ONCE",
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE A.hum > 50 AND |A.temp - B.temp| < 0.5 "
    "AND distance(A.x, A.y, B.x, B.y) > 100 ONCE",
};
/// Admitted mid-run into the first group.
constexpr const char* kServiceLateQuery =
    "SELECT B.temp, A.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.4 "
    "AND distance(A.x, A.y, B.x, B.y) > 80 ONCE";
constexpr uint64_t kServiceEpochs = 6;
constexpr uint64_t kCancelAtStep = 2;  // cancels kServiceQueries[1]
constexpr uint64_t kAdmitAtStep = 4;   // admits kServiceLateQuery

/// The six-axis swarm plus corruption, with fault times spread over a
/// window several epochs long so crashes and outages land across epochs.
ChaosParams ServiceSwarmParams(uint64_t seed) {
  ChaosParams params = SwarmParams(seed);
  params.corruption_rate = 0.01;
  params.window_s = 0.2;
  return params;
}

/// Independent oracle for one service epoch: a brute-force nested loop over
/// the tuples the in-tree sensor nodes sense for `epoch` (relation
/// membership, selections, join predicates, projection). Sorted rows.
join::RowTable OracleRows(const data::NetworkData& data,
                          const net::RoutingTree& tree,
                          const query::AnalyzedQuery& q, uint64_t epoch) {
  std::vector<data::Tuple> sensed;
  for (sim::NodeId u = 0; u < tree.num_nodes(); ++u) {
    if (tree.InTree(u) && u != tree.root()) {
      sensed.push_back(data.Sense(u, epoch));
    }
  }
  const int num_tables = q.num_tables();
  std::vector<std::vector<const data::Tuple*>> per_table(num_tables);
  for (int t = 0; t < num_tables; ++t) {
    const query::AnalyzedTable& table = q.table(t);
    for (const data::Tuple& tuple : sensed) {
      if (!data.BelongsTo(tuple.node, table.relation)) continue;
      if (table.selection != nullptr) {
        std::vector<const data::Tuple*> only(num_tables, nullptr);
        only[t] = &tuple;
        const query::TupleContext ctx(std::move(only));
        if (!query::EvalPredicate(*table.selection, ctx)) continue;
      }
      per_table[t].push_back(&tuple);
    }
  }
  join::RowTable rows(q.select().size());
  std::vector<const data::Tuple*> assignment(num_tables, nullptr);
  auto visit = [&](auto&& self, int t) -> void {
    if (t < num_tables) {
      for (const data::Tuple* tuple : per_table[t]) {
        assignment[t] = tuple;
        self(self, t + 1);
      }
      return;
    }
    const query::TupleContext ctx(assignment);
    for (const auto& p : q.join_predicates()) {
      if (!query::EvalPredicate(*p, ctx)) return;
    }
    std::vector<double> row;
    for (const query::SelectItem& item : q.select()) {
      row.push_back(query::EvalScalar(*item.expr, ctx));
    }
    rows.Append(row);
  };
  visit(visit, 0);
  return join::SortedRows(rows);
}

struct ServiceTrialOutcome {
  std::vector<std::string> violations;
  size_t rebuilds = 0;
  size_t resyncs = 0;
  size_t stale_messages_dropped = 0;
  size_t failed_epochs = 0;
  uint64_t duplicate_packets = 0;
  size_t checked_rows = 0;
};

/// One service chaos trial: a JoinService (`config`) on its own small
/// deployment runs kServiceEpochs epochs under a schedule drawn from
/// `params`, with one cancel and one admission mid-run. After every
/// RunEpoch: a successful epoch gives each active query exactly one new
/// report whose rows equal the oracle, whose certificate excludes exactly
/// the nodes outside the service's tree and whose response time stays
/// within the liveness bound; a failed epoch delivers nothing.
StatusOr<ServiceTrialOutcome> RunServiceChaosTrial(
    const ChaosParams& params,
    const service::ServiceConfig& config = service::ServiceConfig{}) {
  auto tb = Testbed::Create(SmallDeployment(params.seed));
  SENSJOIN_RETURN_IF_ERROR(tb.status());
  service::JoinService svc = MakeService(**tb, config);
  std::vector<service::QueryId> ids;
  for (const char* sql : kServiceQueries) {
    SENSJOIN_ASSIGN_OR_RETURN(const service::QueryId id, svc.Register(sql));
    ids.push_back(id);
  }
  ApplyChaos(**tb, MakeChaosSchedule(**tb, params));

  ServiceTrialOutcome outcome;
  for (uint64_t step = 0; step < kServiceEpochs; ++step) {
    if (step == kCancelAtStep) SENSJOIN_RETURN_IF_ERROR(svc.Cancel(ids[1]));
    if (step == kAdmitAtStep) {
      SENSJOIN_ASSIGN_OR_RETURN(const service::QueryId id,
                                svc.Register(kServiceLateQuery));
      ids.push_back(id);
    }
    const std::vector<service::QueryId> active = svc.registry().ActiveIds();
    std::vector<size_t> reports_before;
    for (service::QueryId id : ids) {
      reports_before.push_back((*svc.registry().Get(id))->reports.size());
    }

    const StatusOr<service::ServiceEpochReport> report = svc.RunEpoch();
    if (!report.ok() &&
        report.status().code() != StatusCode::kResourceExhausted) {
      return report.status();
    }
    if (report.ok()) {
      outcome.rebuilds += report->tree_rebuilds;
      outcome.resyncs += report->delta_resyncs;
      outcome.duplicate_packets += report->cost.duplicate_packets;
    } else {
      ++outcome.failed_epochs;
    }
    // The certificate must exclude exactly the nodes the oracle leaves out.
    std::vector<sim::NodeId> outside;
    for (sim::NodeId u = 0; u < svc.tree().num_nodes(); ++u) {
      if (!svc.tree().InTree(u)) outside.push_back(u);
    }
    bool counted_epoch = false;
    for (size_t i = 0; i < ids.size(); ++i) {
      const service::QueryRecord* record = *svc.registry().Get(ids[i]);
      const bool is_active =
          std::find(active.begin(), active.end(), ids[i]) != active.end();
      const size_t expected = report.ok() && is_active ? 1 : 0;
      const size_t added = record->reports.size() - reports_before[i];
      const std::string where = "step " + std::to_string(step) + " query " +
                                std::to_string(ids[i]);
      if (added != expected) {
        outcome.violations.push_back(
            where + ": " + std::to_string(added) + " new reports, expected " +
            std::to_string(expected));
        continue;
      }
      if (expected == 0) continue;
      const join::ExecutionReport& delivered = record->reports.back();
      // Every member report of an epoch carries the epoch's counters.
      if (!counted_epoch) {
        outcome.stale_messages_dropped += delivered.stale_messages_dropped;
        counted_epoch = true;
      }
      if (delivered.certificate.excluded_nodes != outside) {
        outcome.violations.push_back(
            where + ": certificate excludes " +
            std::to_string(delivered.certificate.excluded_nodes.size()) +
            " nodes, " + std::to_string(outside.size()) +
            " are outside the tree");
      }
      if (delivered.response_time_s > SwarmLiveness().max_total_s) {
        outcome.violations.push_back(
            where + ": response time " +
            std::to_string(delivered.response_time_s) + " s");
      }
      const join::RowTable rows = join::SortedRows(delivered.result.rows);
      const join::RowTable oracle =
          OracleRows((*tb)->data(), svc.tree(), record->query, report->epoch);
      outcome.checked_rows += oracle.size();
      if (rows != oracle) {
        outcome.violations.push_back(
            where + " epoch " + std::to_string(report->epoch) + ": " +
            std::to_string(rows.size()) + " rows differ from the oracle's " +
            std::to_string(oracle.size()));
      }
    }
  }
  return outcome;
}

/// Minimizes a violating service schedule and renders the JSON reproducer.
std::string MinimizedServiceReproducer(const ChaosParams& params) {
  const auto reproduces = [](const ChaosParams& candidate) {
    auto o = RunServiceChaosTrial(candidate);
    return o.ok() && !o->violations.empty();
  };
  const ChaosParams minimal = MinimizeChaos(params, reproduces);
  auto tb = Testbed::Create(SmallDeployment(minimal.seed));
  if (!tb.ok()) return "(reproducer testbed failed)";
  return ChaosScheduleToJson(minimal, MakeChaosSchedule(**tb, minimal));
}

TEST(ServiceChaosSoakTest, EveryEpochMatchesOracleOrDeliversNothing) {
  constexpr int kTrials = 60;
  constexpr uint64_t kSweepSeed = 3079;
  ParallelRunner runner(0);  // flag/env/hardware
  auto outcomes = runner.Run(kTrials, kSweepSeed, [](const TrialContext& ctx) {
    auto o = RunServiceChaosTrial(ServiceSwarmParams(ctx.seed));
    EXPECT_TRUE(o.ok()) << "trial " << ctx.trial << ": " << o.status();
    return o.ok() ? *o : ServiceTrialOutcome{};
  });
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();

  size_t rebuilds = 0;
  size_t resyncs = 0;
  size_t stale_messages_dropped = 0;
  size_t failed_epochs = 0;
  uint64_t duplicate_packets = 0;
  size_t checked_rows = 0;
  bool dumped_reproducer = false;
  for (int i = 0; i < kTrials; ++i) {
    const ServiceTrialOutcome& o = (*outcomes)[static_cast<size_t>(i)];
    for (const std::string& v : o.violations) {
      ADD_FAILURE() << "trial " << i << ": " << v;
    }
    if (!o.violations.empty() && !dumped_reproducer) {
      dumped_reproducer = true;
      const uint64_t trial_seed =
          DeriveTrialSeed(kSweepSeed, static_cast<uint64_t>(i));
      ADD_FAILURE() << "reproducer: "
                    << MinimizedServiceReproducer(
                           ServiceSwarmParams(trial_seed));
    }
    rebuilds += o.rebuilds;
    resyncs += o.resyncs;
    stale_messages_dropped += o.stale_messages_dropped;
    failed_epochs += o.failed_epochs;
    duplicate_packets += o.duplicate_packets;
    checked_rows += o.checked_rows;
  }
  // Non-vacuity: the sweep must have compared result rows, rebuilt the
  // tree, re-pulled hops, rejected replayed stale-attempt messages,
  // exhausted an epoch's retries and duplicated packets.
  EXPECT_GT(checked_rows, 0u);
  EXPECT_GT(rebuilds, 0u);
  EXPECT_GT(resyncs, 0u);
  EXPECT_GT(stale_messages_dropped, 0u);
  EXPECT_GT(failed_epochs, 0u);
  EXPECT_GT(duplicate_packets, 0u);
}

// Without retries every failed epoch exhausts the attempt driver, and what
// it left in flight is replayed into the next epoch. There it must be
// rejected as stale (each RunEpoch call has its own attempt ids), not taken for
// the next epoch's own traffic or flagged as a never-stamped tag.
TEST(ServiceChaosSoakTest, LeftoverReplaysOfExhaustedEpochsAreStale) {
  constexpr int kTrials = 20;
  service::ServiceConfig config;
  config.protocol.max_retries = 0;
  ParallelRunner runner(0);  // flag/env/hardware
  auto outcomes =
      runner.Run(kTrials, 4099, [&config](const TrialContext& ctx) {
        auto o = RunServiceChaosTrial(ServiceSwarmParams(ctx.seed), config);
        EXPECT_TRUE(o.ok()) << "trial " << ctx.trial << ": " << o.status();
        return o.ok() ? *o : ServiceTrialOutcome{};
      });
  ASSERT_TRUE(outcomes.ok()) << outcomes.status();
  size_t failed_epochs = 0;
  size_t stale_messages_dropped = 0;
  for (int i = 0; i < kTrials; ++i) {
    const ServiceTrialOutcome& o = (*outcomes)[static_cast<size_t>(i)];
    for (const std::string& v : o.violations) {
      ADD_FAILURE() << "trial " << i << ": " << v;
    }
    failed_epochs += o.failed_epochs;
    stale_messages_dropped += o.stale_messages_dropped;
  }
  // With one attempt per epoch, every stale drop is a cross-epoch replay.
  EXPECT_GT(failed_epochs, 0u);
  EXPECT_GT(stale_messages_dropped, 0u);
}

// Without retries a call that loses a hop exhausts the attempt driver, and
// what it left in flight is replayed into the next call on the same
// simulator. There it must be rejected as stale (each call starts above
// the leftovers' attempt ids), not taken for the call's own traffic or
// flagged as a never-stamped tag (which aborts the process).
TEST(ChaosSoakTest, LeftoverReplaysOfExhaustedCallsAreStale) {
  join::ProtocolConfig config;
  config.max_retries = 0;
  const LivenessBounds liveness = SwarmLiveness();
  size_t exhausted = 0;
  size_t stale_messages_dropped = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    auto tb = Testbed::Create(SmallDeployment(seed));
    ASSERT_TRUE(tb.ok()) << tb.status();
    auto q = (*tb)->ParseQuery(kQuery);
    ASSERT_TRUE(q.ok()) << q.status();
    (*tb)->DisseminateQuery(*q);
    ApplyChaos(**tb, MakeChaosSchedule(**tb, SwarmParams(seed)));
    const join::JoinResult truth = ComputeGroundTruth(**tb, *q, 0);
    for (int call = 0; call < 6; ++call) {
      auto report = (*tb)->MakeSensJoin(config).Execute(*q, 0);
      if (!report.ok()) {
        EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
            << "seed " << seed << " call " << call << ": "
            << report.status();
        ++exhausted;
        continue;
      }
      stale_messages_dropped += report->stale_messages_dropped;
      for (const std::string& v :
           CheckInvariants(truth, *report, nullptr, &liveness)) {
        ADD_FAILURE() << "seed " << seed << " call " << call << ": " << v;
      }
    }
  }
  EXPECT_GT(exhausted, 0u);
  EXPECT_GT(stale_messages_dropped, 0u);
}

// The Sec. II baselines run on the one attempt driver: under the swarm's
// schedules with the default config, a call either gives up with
// ResourceExhausted or returns a certified result that matches the ground
// truth, a lost hop is survived by a tree rebuild and re-execution, and
// the aborted attempt's replays are rejected as stale. kQuery has no
// B-only node, so the semi-join also runs a query whose B side (x >= 130)
// is disjoint from its A side: a B-only node the flood missed must be
// certified lost, or the certificate is not exact.
TEST(ChaosSoakTest, SecIIBaselinesRetryOrFailCleanly) {
  constexpr const char* kSplitQuery =
      "SELECT A.hum, B.hum FROM sensors A, sensors B "
      "WHERE A.x < 130 AND B.x >= 130 AND |A.temp - B.temp| < 0.5 ONCE";
  struct Baseline {
    const char* name;
    bool mediated;
    const char* query;
  };
  const LivenessBounds liveness = SwarmLiveness();
  for (const Baseline& baseline :
       {Baseline{"semi-join", false, kQuery},
        Baseline{"mediated", true, kQuery},
        Baseline{"semi-join split", false, kSplitQuery}}) {
    const char* name = baseline.name;
    const bool mediated = baseline.mediated;
    size_t retried_successes = 0;
    size_t stale_messages_dropped = 0;
    for (uint64_t seed = 1; seed <= 30; ++seed) {
      auto tb = Testbed::Create(SmallDeployment(seed));
      ASSERT_TRUE(tb.ok()) << tb.status();
      auto q = (*tb)->ParseQuery(baseline.query);
      ASSERT_TRUE(q.ok()) << q.status();
      (*tb)->DisseminateQuery(*q);
      ApplyChaos(**tb, MakeChaosSchedule(**tb, SwarmParams(seed)));

      join::SemiJoinExecutor semi((*tb)->simulator(), (*tb)->tree(),
                                  (*tb)->data());
      join::MediatedJoinExecutor med((*tb)->simulator(), (*tb)->tree(),
                                     (*tb)->data());
      obs::Tracer tracer;
      (*tb)->AttachTracer(&tracer);
      auto report = mediated ? med.Execute(*q, 0) : semi.Execute(*q, 0);
      (*tb)->AttachTracer(nullptr);
      if (!report.ok()) {
        EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted)
            << name << " seed " << seed << ": " << report.status();
        continue;
      }
      const join::JoinResult truth = ComputeGroundTruth(**tb, *q, 0);
      for (const std::string& v :
           CheckInvariants(truth, *report, &tracer, &liveness)) {
        ADD_FAILURE() << name << " seed " << seed << ": " << v;
      }
      if (report->attempts > 1) ++retried_successes;
      stale_messages_dropped += report->stale_messages_dropped;
    }
    EXPECT_GT(retried_successes, 0u) << name;
    EXPECT_GT(stale_messages_dropped, 0u) << name;
  }
}

/// Renders a chaos sweep the way a bench would: one fingerprint line per
/// trial, collected in trial order.
std::string RenderChaosSweep(int threads, uint64_t sweep_seed) {
  constexpr int kTrials = 6;
  ParallelRunner runner(threads);
  auto lines = runner.Run(kTrials, sweep_seed, [&](const TrialContext& ctx) {
    auto o = RunChaosTrial(SwarmParams(ctx.seed), /*external=*/false);
    EXPECT_TRUE(o.ok()) << o.status();
    return o.ok() ? o->fingerprint : std::string();
  });
  EXPECT_TRUE(lines.ok()) << lines.status();
  if (!lines.ok()) return "";
  std::ostringstream out;
  for (const std::string& line : *lines) out << line << "\n";
  return out.str();
}

TEST(ChaosDeterminismTest, OneThreadAndFourThreadsAreByteIdentical) {
  const std::string seq = RenderChaosSweep(/*threads=*/1, /*sweep_seed=*/42);
  const std::string par = RenderChaosSweep(/*threads=*/4, /*sweep_seed=*/42);
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

TEST(ChaosDeterminismTest, SameSeedReplaysAreByteIdentical) {
  const std::string a = RenderChaosSweep(/*threads=*/4, /*sweep_seed=*/7);
  const std::string b = RenderChaosSweep(/*threads=*/4, /*sweep_seed=*/7);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ChaosDeterminismTest, DifferentSweepSeedsDiffer) {
  EXPECT_NE(RenderChaosSweep(2, 42), RenderChaosSweep(2, 43));
}

/// A loss burst raises only its link's loss. The override that installs it
/// replaces all three of the link's rates, so it must carry the ambient
/// corruption and duplication along: a burst that zeroed them would skip
/// that link's duplication rolls and shift every later fault draw. The
/// reproducer JSON lists every burst link the schedule drew.
TEST(ChaosScheduleTest, LossBurstsKeepCorruptionAndDuplication) {
  auto tb = Testbed::Create(SmallDeployment(5));
  ASSERT_TRUE(tb.ok()) << tb.status();
  ChaosParams params = SwarmParams(5);
  params.corruption_rate = 0.03;
  params.num_loss_bursts = 4;
  const ChaosSchedule schedule = MakeChaosSchedule(**tb, params);
  const std::vector<sim::LinkRatesOverride>& bursts =
      schedule.plan.link_overrides;
  ASSERT_EQ(bursts.size(), 4u);

  const std::string json = ChaosScheduleToJson(params, schedule);
  const size_t section = json.find("\"loss_bursts\":[");
  ASSERT_NE(section, std::string::npos) << json;
  const std::string listed =
      json.substr(section, json.find(']', section) - section);
  ApplyChaos(**tb, schedule);
  for (const sim::LinkRatesOverride& burst : bursts) {
    EXPECT_EQ(burst.rates.loss, params.burst_loss_rate);
    const sim::LinkRates installed =
        (*tb)->simulator().radio().Rates(burst.a, burst.b);
    EXPECT_EQ(installed.loss, params.burst_loss_rate);
    EXPECT_EQ(installed.corruption, params.corruption_rate);
    EXPECT_EQ(installed.duplication, params.duplication_rate);
    const std::string entry = "{\"a\":" + std::to_string(burst.a) +
                              ",\"b\":" + std::to_string(burst.b) +
                              ",\"loss\":";
    EXPECT_NE(listed.find(entry), std::string::npos) << entry << " in "
                                                     << listed;
  }
}

/// The bit-identity contract behind "all off by default": on a fault-free
/// deployment, enabling every self-healing feature must not change a
/// single packet, byte, energy debit or trace event.
TEST(ChaosDeterminismTest, SelfHealingIsInertWithoutFaults) {
  auto run = [](const join::ProtocolConfig& config) -> std::string {
    auto tb = Testbed::Create(SmallDeployment(321));
    if (!tb.ok()) return "create-failed";
    auto q = (*tb)->ParseQuery(kQuery);
    if (!q.ok()) return "parse-failed";
    (*tb)->DisseminateQuery(*q);
    obs::Tracer tracer;
    (*tb)->AttachTracer(&tracer);
    auto report = (*tb)->MakeSensJoin(config).Execute(*q, 0);
    (*tb)->AttachTracer(nullptr);
    if (!report.ok()) return "execute-failed";
    return ExecutionFingerprint(*report, &tracer);
  };
  const std::string baseline = run(join::ProtocolConfig{});
  const std::string healing = run(SelfHealingConfig());
  ASSERT_NE(baseline, "create-failed");
  ASSERT_NE(baseline, "execute-failed");
  EXPECT_EQ(baseline, healing);
}

/// An expired watchdog must short-circuit repair: with an already-elapsed
/// budget, a crashed subtree is certified as excluded without a single
/// repair attempt, and the execution still completes.
TEST(ChaosWatchdogTest, ExpiredWatchdogDegradesWithoutRepair) {
  auto tb = Testbed::Create(SmallDeployment(9));
  ASSERT_TRUE(tb.ok()) << tb.status();
  auto q = (*tb)->ParseQuery(kQuery);
  ASSERT_TRUE(q.ok()) << q.status();
  (*tb)->DisseminateQuery(*q);

  // Crash the in-tree node with the largest subtree shortly after the
  // execution starts: its branch is the most likely to still be mid-flight.
  const net::RoutingTree& tree = (*tb)->tree();
  sim::NodeId victim = sim::kInvalidNode;
  int best = 0;
  for (sim::NodeId u = 0; u < tree.num_nodes(); ++u) {
    if (!tree.InTree(u) || u == tree.root()) continue;
    if (tree.subtree_size(u) > best) {
      best = tree.subtree_size(u);
      victim = u;
    }
  }
  ASSERT_NE(victim, sim::kInvalidNode);

  sim::FaultPlan plan;
  sim::CrashEvent crash;
  crash.node = victim;
  crash.at = (*tb)->simulator().now() + 1e-4;
  plan.crash_events.push_back(crash);
  (*tb)->InjectFaults(plan);

  join::ProtocolConfig config = SelfHealingConfig();
  config.watchdog_base_s = -1.0;  // deadline already in the past
  config.watchdog_per_hop_factor = 0.0;
  auto report = (*tb)->MakeSensJoin(config).Execute(*q, 0);
  ASSERT_TRUE(report.ok()) << report.status();

  EXPECT_TRUE(report->success);
  EXPECT_GT(report->watchdog_expirations, 0u);
  EXPECT_EQ(report->repairs_attempted, 0u);
  EXPECT_TRUE(report->certificate.degraded);
  EXPECT_TRUE(report->certificate.IsExcluded(victim));
}

/// FNV-1a over a fingerprint string, so a whole execution pins to one
/// 64-bit literal.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Rungs of the self-healing ladder (phase recovery, in-network repair,
/// phase watchdog, certified degradation) one or more executions reached.
struct LadderRungs {
  bool recovery = false;
  bool repair = false;
  bool watchdog = false;
  bool degraded = false;

  void Add(const join::ExecutionReport& r) {
    recovery |= r.recovery_requests > 0;
    repair |= r.repairs_succeeded > 0;
    watchdog |= r.watchdog_expirations > 0;
    degraded |= r.certificate.degraded;
  }
  void Add(const LadderRungs& other) {
    recovery |= other.recovery;
    repair |= other.repair;
    watchdog |= other.watchdog;
    degraded |= other.degraded;
  }
};

struct PinnedDigests {
  uint64_t sens_traced = 0;  ///< SENS-Join fingerprint incl. trace digest
  uint64_t external = 0;     ///< external-join fingerprint
  LadderRungs sens_rungs;
  LadderRungs external_rungs;
};

/// One query flood, external join and traced SENS-Join on a 220-node
/// deployment. `chaos_seed != 0` arms a seeded six-axis fault schedule
/// (with ARQ) and the full self-healing ladder first; `tight_watchdog`
/// then shrinks each phase's budget to one packet latency per hop of tree
/// depth, so escalations late in a phase hit the watchdog rung.
PinnedDigests RunPinned(uint64_t seed, uint64_t chaos_seed,
                        bool tight_watchdog) {
  TestbedParams params;
  params.placement.num_nodes = 220;
  params.placement.area_width_m = 420;
  params.placement.area_height_m = 420;
  params.seed = seed;
  auto tb = Testbed::Create(params);
  SENSJOIN_CHECK(tb.ok()) << tb.status();
  auto q = (*tb)->ParseQuery(kQuery);
  SENSJOIN_CHECK(q.ok()) << q.status();
  (*tb)->DisseminateQuery(*q);

  join::ProtocolConfig config;
  if (chaos_seed != 0) {
    ChaosParams chaos = SwarmParams(chaos_seed);
    chaos.arq_enabled = true;
    ApplyChaos(**tb, MakeChaosSchedule(**tb, chaos));
    config = SelfHealingConfig();
    if (tight_watchdog) {
      config.watchdog_base_s = 0.0;
      config.watchdog_per_hop_factor = 1.0;
    }
  }

  obs::Tracer tracer;
  (*tb)->AttachTracer(&tracer);
  auto ext = (*tb)->MakeExternalJoin(config).Execute(*q, 0);
  auto sens = (*tb)->MakeSensJoin(config).Execute(*q, 0);
  (*tb)->AttachTracer(nullptr);
  SENSJOIN_CHECK(ext.ok()) << ext.status();
  SENSJOIN_CHECK(sens.ok()) << sens.status();
  PinnedDigests digests;
  digests.sens_traced = Fnv1a(ExecutionFingerprint(*sens, &tracer));
  digests.external = Fnv1a(ExecutionFingerprint(*ext, nullptr));
  digests.sens_rungs.Add(*sens);
  digests.external_rungs.Add(*ext);
  return digests;
}

struct PinnedCase {
  uint64_t seed;
  uint64_t chaos_seed;
  uint64_t sens_traced;
  uint64_t external;
  bool tight_watchdog = false;
};

/// Byte-identity across commits: every packet, byte, energy bit pattern,
/// certificate entry and trace event of these executions is pinned to the
/// digests recorded when the values were last deliberately changed. A
/// refactor that claims identical output must leave them untouched.
TEST(PinnedFingerprintTest, ExecutionsMatchRecordedDigests) {
  if (!obs::kTracingCompiledIn) {
    GTEST_SKIP() << "the pinned digests include the sim-time trace";
  }
  const PinnedCase cases[] = {
      {7, 0, 0x28d53ebd3a078572ull, 0xf0d991728e6fead0ull},
      {101, 0, 0x9bfcf8232bd5ba36ull, 0xb30d0c61560c3116ull},
      {9000, 0, 0x9fb3ee10b73df602ull, 0xc02691a9078c3f44ull},
      {21, 3, 0x239a912fc8f60031ull, 0x25ee7a7ceb1b93f9ull},
      {21, 17, 0x04b026798ab064c0ull, 0x7783a96d8041c156ull},
      {21, 52, 0xa979ab2e6fd829f2ull, 0x1c9e1b2a2b5f2773ull,
       /*tight_watchdog=*/true},
  };
  LadderRungs sens_rungs;
  LadderRungs external_rungs;
  for (const PinnedCase& c : cases) {
    const PinnedDigests got =
        RunPinned(c.seed, c.chaos_seed, c.tight_watchdog);
    sens_rungs.Add(got.sens_rungs);
    external_rungs.Add(got.external_rungs);
    EXPECT_EQ(got.sens_traced, c.sens_traced)
        << "seed=" << c.seed << " chaos=" << c.chaos_seed << std::hex
        << " sens_traced=0x" << got.sens_traced;
    EXPECT_EQ(got.external, c.external)
        << "seed=" << c.seed << " chaos=" << c.chaos_seed << std::hex
        << " external=0x" << got.external;
  }
  // Every rung of the shared fault ladder is pinned for both executors.
  // Rungs reached at the recording: chaos 3 -> SENS-Join recovery and
  // degradation, external repair and degradation; chaos 17 -> SENS-Join
  // recovery, repair and degradation, external repair and degradation;
  // chaos 52 with the tight watchdog -> SENS-Join recovery, watchdog and
  // degradation, external watchdog and degradation. The external join has
  // no recovery budget, so it never re-requests a hop.
  EXPECT_TRUE(sens_rungs.recovery);
  EXPECT_TRUE(sens_rungs.repair);
  EXPECT_TRUE(sens_rungs.watchdog);
  EXPECT_TRUE(sens_rungs.degraded);
  EXPECT_FALSE(external_rungs.recovery);
  EXPECT_TRUE(external_rungs.repair);
  EXPECT_TRUE(external_rungs.watchdog);
  EXPECT_TRUE(external_rungs.degraded);
}

}  // namespace
}  // namespace sensjoin::testbed
