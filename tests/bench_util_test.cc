// The bench harness itself is load-bearing (it produces the paper
// comparison), so its utilities get tests too.

#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "../bench/util/calibration.h"
#include "../bench/util/table.h"
#include "../bench/util/tracing.h"
#include "../bench/util/workloads.h"
#include "sensjoin/obs/export.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::bench {
namespace {

TEST(TablePrinterTest, AlignsColumnsAndPadsMissingCells) {
  TablePrinter table({"a", "long header", "c"});
  table.AddRow({"wide cell", "x"});
  table.AddRow({"1", "2", "3"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  // Header, rule, two rows.
  int lines = 0;
  for (char c : out) lines += c == '\n';
  EXPECT_EQ(lines, 4);
  EXPECT_NE(out.find("a          "), std::string::npos);  // padded to width
  EXPECT_NE(out.find("long header"), std::string::npos);
}

TEST(FormattersTest, NumbersAndPercentages) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(uint64_t{42}), "42");
  EXPECT_EQ(Percent(1, 4), "25.0%");
  EXPECT_EQ(Percent(1, 0), "n/a");
  EXPECT_EQ(Savings(20, 100), "80.0%");
  EXPECT_EQ(Savings(150, 100), "-50.0%");
  EXPECT_EQ(Savings(10, 0), "n/a");
}

TEST(WorkloadsTest, RatioQueriesHaveTheRequestedArity) {
  testbed::TestbedParams params = PaperDefaultParams(1, 200);
  auto tb = MustCreateTestbed(params);
  for (int attrs = 1; attrs <= 5; ++attrs) {
    auto q = tb->ParseQuery(RatioQueryOneJoinAttr(attrs, 3.0));
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->table(0).join_attr_indices.size(), 1u);
    EXPECT_EQ(static_cast<int>(q->table(0).queried_attr_indices.size()),
              attrs);
  }
  for (int attrs = 3; attrs <= 6; ++attrs) {
    auto q = tb->ParseQuery(RatioQueryThreeJoinAttrs(attrs, 200.0));
    ASSERT_TRUE(q.ok()) << q.status();
    EXPECT_EQ(q->table(0).join_attr_indices.size(), 3u);
    EXPECT_EQ(static_cast<int>(q->table(0).queried_attr_indices.size()),
              attrs);
  }
}

TEST(WorkloadsTest, PaperDefaultsScaleAreaWithDensity) {
  const auto p1500 = PaperDefaultParams(1, 1500);
  EXPECT_DOUBLE_EQ(p1500.placement.area_width_m, 1050.0);
  const auto p3000 = PaperDefaultParams(1, 3000);
  // Double the nodes -> double the area -> side * sqrt(2).
  EXPECT_NEAR(p3000.placement.area_width_m * p3000.placement.area_height_m,
              2 * 1050.0 * 1050.0, 1.0);
}

TEST(CalibrationTest, FractionIsMonotoneAndCalibratable) {
  testbed::TestbedParams params = PaperDefaultParams(5, 250);
  auto tb = MustCreateTestbed(params);
  // Fraction decreases as the threshold grows.
  auto q_loose = tb->ParseQuery(RatioQueryOneJoinAttr(3, 0.5));
  auto q_tight = tb->ParseQuery(RatioQueryOneJoinAttr(3, 6.0));
  ASSERT_TRUE(q_loose.ok() && q_tight.ok());
  const double loose = ResultNodeFraction(*tb, *q_loose, 0);
  const double tight = ResultNodeFraction(*tb, *q_tight, 0);
  EXPECT_GE(loose, tight);

  const Calibration cal = CalibrateFraction(
      *tb, [](double d) { return RatioQueryOneJoinAttr(3, d); }, 0.0, 25.0,
      0.10, /*increasing=*/false);
  EXPECT_NEAR(cal.fraction, 0.10, 0.05);
  auto q = tb->ParseQuery(cal.sql);
  ASSERT_TRUE(q.ok());
  EXPECT_NEAR(ResultNodeFraction(*tb, *q, 0), cal.fraction, 1e-12);
}

TEST(CalibrationTest, FractionMatchesExecutorGroundTruth) {
  testbed::TestbedParams params = PaperDefaultParams(6, 200);
  auto tb = MustCreateTestbed(params);
  auto q = tb->ParseQuery(RatioQueryOneJoinAttr(3, 4.0));
  ASSERT_TRUE(q.ok());
  const double fraction = ResultNodeFraction(*tb, *q, 0);
  auto report = tb->MakeExternalJoin().Execute(*q, 0);
  ASSERT_TRUE(report.ok());
  const double executed =
      static_cast<double>(report->result.contributing_nodes.size()) /
      (tb->simulator().num_nodes() - 1);
  EXPECT_NEAR(fraction, executed, 1e-12);
}

// A faulted exchange over one link that moves every ledger counter: every
// message kind (repair traffic included), lossy and corrupting links under
// ARQ with the CRC trailer on and then off, duplicated deliveries, and an
// aborted attempt whose in-flight messages are replayed. Both exporters
// must then carry every counter: the metrics capture as an equal gauge,
// the trace cross-check JSON as a key. With tracing compiled in, the run's
// Chrome trace is written to SENSJOIN_LEDGER_TRACE with the cost report
// embedded; the ledger_trace_cross_check ctest then recomputes every
// counter the events determine with scripts/trace_summary.py.
TEST(LedgerExportTest, EveryCounterReachesBothExporters) {
  sim::Simulator sim(sim::Radio({{0, 0}, {40, 0}}, 50.0));
  obs::Tracer tracer;
  sim.set_tracer(&tracer);
  sim.SeedFaults(7);
  sim.radio().set_default_rates(
      {.loss = 0.3, .corruption = 0.3, .duplication = 0.5});
  sim.set_arq_params(sim::ArqParams{.enabled = true});
  sim.set_replay_enabled(true);
  const join::StatsSnapshot before(sim);
  auto send_every_kind = [&sim] {
    for (size_t k = 0; k < static_cast<size_t>(sim::MessageKind::kNumKinds);
         ++k) {
      for (int i = 0; i < 10; ++i) {
        sim::Message msg;
        msg.src = 0;
        msg.dst = 1;
        msg.kind = static_cast<sim::MessageKind>(k);
        msg.payload_bytes = 100;
        sim.SendUnicast(std::move(msg));
      }
    }
  };
  sim.set_integrity_params(sim::IntegrityParams{.crc_enabled = true});
  send_every_kind();
  sim.NotifyAttemptAbort();
  EXPECT_GT(sim.ReleaseReplays(), 0);
  sim.set_integrity_params(sim::IntegrityParams{.crc_enabled = false});
  send_every_kind();
  sim.events().Run();
  const join::CostReport cost = before.DeltaTo(sim);

  std::map<std::string, double> gauges;
  obs::MetricsRegistry registry;
  obs::CaptureSimulatorMetrics(sim, &registry);
  for (const auto& g : registry.Snapshot(sim.now()).gauges) {
    gauges[g.name] = g.value;
  }
  const std::string json = CostReportJson(cost);
  sim::ForEachCounter(sim.totals(), [&](std::string_view name, auto value) {
    EXPECT_GT(value, decltype(value){}) << name;
    const auto gauge = gauges.find("sim." + std::string(name));
    ASSERT_NE(gauge, gauges.end()) << name;
    EXPECT_EQ(gauge->second, static_cast<double>(value)) << name;
    EXPECT_NE(json.find("\"" + std::string(name) + "\":"),
              std::string::npos)
        << name;
  });

  if (!obs::kTracingCompiledIn) return;
  // No protocol phase is open, so every event belongs to phase "None".
  ASSERT_EQ(tracer.buffer().dropped(), 0u);
  obs::TraceExportOptions options;
  options.extra_sections.emplace_back(
      "crossCheck", "{\"phase_map\":{\"all\":[\"None\"]},\"all\":" + json +
                        "}");
  const Status status =
      obs::WriteChromeTraceFile(tracer, SENSJOIN_LEDGER_TRACE, options);
  EXPECT_TRUE(status.ok()) << status;
}

}  // namespace
}  // namespace sensjoin::bench
