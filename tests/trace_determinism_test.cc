// The observability contract: tracing observes the simulation without
// perturbing it. An attached tracer (enabled or disabled) must leave every
// CostReport bit-identical to an untraced run, including under faults, and
// per-trial traces must not depend on the ParallelRunner's thread count.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin {
namespace {

testbed::TestbedParams SmallParams(uint64_t seed = 42) {
  testbed::TestbedParams params;
  params.placement.num_nodes = 120;
  params.placement.area_width_m = 320;
  params.placement.area_height_m = 320;
  params.seed = seed;
  return params;
}

constexpr const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 300 ONCE";

sim::FaultPlan LossyPlan() {
  sim::FaultPlan plan;
  plan.rates.loss = 0.05;
  plan.arq.enabled = true;
  return plan;
}

// One execution of SENS-Join on a fresh faulty testbed; `tracer` may be
// null (untraced), disabled, or enabled.
join::CostReport RunOnce(uint64_t seed, obs::Tracer* tracer) {
  auto tb = testbed::Testbed::Create(SmallParams(seed));
  SENSJOIN_CHECK(tb.ok()) << tb.status();
  if (tracer != nullptr) (*tb)->AttachTracer(tracer);
  (*tb)->InjectFaults(LossyPlan());
  auto q = (*tb)->ParseQuery(kQuery);
  SENSJOIN_CHECK(q.ok()) << q.status();
  (*tb)->DisseminateQuery(*q);
  auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
  SENSJOIN_CHECK(report.ok()) << report.status();
  return report->cost;
}

TEST(TraceDeterminismTest, EnabledTracerDoesNotPerturbResults) {
  const join::CostReport untraced = RunOnce(42, nullptr);
  obs::Tracer tracer;
  const join::CostReport traced = RunOnce(42, &tracer);
  if (obs::kTracingCompiledIn) {
    EXPECT_GT(tracer.buffer().size(), 0u);
  }
  // Bit-exact: the defaulted == compares the doubles with ==, because the
  // traced run must execute the very same floating-point operations.
  EXPECT_TRUE(untraced == traced);
}

TEST(TraceDeterminismTest, DisabledTracerIsInvisible) {
  const join::CostReport untraced = RunOnce(42, nullptr);
  obs::Tracer tracer;
  tracer.set_enabled(false);
  const join::CostReport traced = RunOnce(42, &tracer);
  EXPECT_EQ(tracer.buffer().size(), 0u);
  EXPECT_EQ(tracer.metrics().num_instruments(),
            obs::Tracer().metrics().num_instruments());
  EXPECT_TRUE(untraced == traced);
}

// Each trial owns its testbed and tracer, so the exported per-trial traces
// must be byte-identical whether the sweep ran on one thread or four.
TEST(TraceDeterminismTest, TracesAreThreadCountInvariant) {
  constexpr int kTrials = 4;
  auto run_sweep = [](int threads) -> std::vector<std::string> {
    testbed::ParallelRunner runner(threads);
    auto traces = runner.Run(
        kTrials, /*sweep_seed=*/7,
        [](const testbed::TrialContext& ctx) -> std::string {
          auto tb = testbed::Testbed::Create(SmallParams(ctx.seed));
          SENSJOIN_CHECK(tb.ok()) << tb.status();
          obs::Tracer tracer;
          (*tb)->AttachTracer(&tracer);
          auto q = (*tb)->ParseQuery(kQuery);
          SENSJOIN_CHECK(q.ok()) << q.status();
          auto report = (*tb)->MakeSensJoin().Execute(*q, 0);
          SENSJOIN_CHECK(report.ok()) << report.status();
          return obs::ChromeTraceJson(tracer);
        });
    SENSJOIN_CHECK(traces.ok()) << traces.status();
    return *traces;
  };

  const std::vector<std::string> sequential = run_sweep(1);
  const std::vector<std::string> parallel = run_sweep(4);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_GT(sequential[i].size(), 2u);
    EXPECT_EQ(sequential[i], parallel[i]) << "trial " << i;
  }
}

}  // namespace
}  // namespace sensjoin