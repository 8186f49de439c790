// Exercises concurrent, independent Testbed instances end to end: several
// worker threads each build a deployment from their own seed and run a
// full SENS-Join execution. The library must have no hidden shared mutable
// state for this to be clean — this test is the primary target of the TSan
// CI job (SENSJOIN_SANITIZE=thread).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/sensjoin.h"

namespace sensjoin::testbed {
namespace {

constexpr const char* kQuery =
    "SELECT A.hum, B.hum FROM sensors A, sensors B "
    "WHERE |A.temp - B.temp| < 0.3 "
    "AND distance(A.x, A.y, B.x, B.y) > 200 ONCE";

TestbedParams SmallParams(uint64_t seed) {
  TestbedParams params;
  params.placement.num_nodes = 120;
  params.placement.area_width_m = 300;
  params.placement.area_height_m = 300;
  params.seed = seed;
  return params;
}

struct TrialResult {
  uint64_t join_packets = 0;
  uint64_t result_rows = 0;
  double energy_mj = 0.0;

  bool operator==(const TrialResult&) const = default;
};

StatusOr<TrialResult> RunTrial(uint64_t seed) {
  auto tb = Testbed::Create(SmallParams(seed));
  SENSJOIN_RETURN_IF_ERROR(tb.status());
  auto q = (*tb)->ParseQuery(kQuery);
  SENSJOIN_RETURN_IF_ERROR(q.status());
  auto report = (*tb)->MakeSensJoin().Execute(*q, /*epoch=*/0);
  SENSJOIN_RETURN_IF_ERROR(report.status());
  TrialResult out;
  out.join_packets = report->cost.join_packets;
  out.result_rows = report->result.rows.size();
  out.energy_mj = report->cost.energy_mj;
  return out;
}

TEST(ConcurrentTestbedTest, ParallelTrialsMatchSequentialBaseline) {
  const int kTrials = 6;
  const uint64_t kSweepSeed = 42;

  // Sequential ground truth, one trial at a time on this thread.
  std::vector<TrialResult> baseline;
  for (int i = 0; i < kTrials; ++i) {
    auto r = RunTrial(DeriveTrialSeed(kSweepSeed, i));
    ASSERT_TRUE(r.ok()) << r.status();
    baseline.push_back(*r);
  }

  // Same trials, concurrently.
  ParallelRunner runner(4);
  auto parallel =
      runner.Run(kTrials, kSweepSeed, [](const TrialContext& ctx) {
        auto r = RunTrial(ctx.seed);
        // Surface failures through the result so the comparison below
        // reports which trial diverged.
        EXPECT_TRUE(r.ok()) << "trial " << ctx.trial << ": " << r.status();
        return r.ok() ? *r : TrialResult{};
      });
  ASSERT_TRUE(parallel.ok()) << parallel.status();

  ASSERT_EQ(parallel->size(), baseline.size());
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_EQ((*parallel)[i], baseline[i]) << "trial " << i;
  }
}

TEST(ConcurrentTestbedTest, ConcurrentSensAndExternalOnSeparateTestbeds) {
  // Mixed executor types in flight at once, including faulty links (which
  // exercise the fault RNG paths concurrently).
  ParallelRunner runner(4);
  auto s = runner.RunTrials(8, /*sweep_seed=*/7,
                            [](const TrialContext& ctx) -> Status {
    auto tb = Testbed::Create(SmallParams(ctx.seed));
    SENSJOIN_RETURN_IF_ERROR(tb.status());
    if (ctx.trial % 2 == 0) {
      sim::FaultPlan plan;
      plan.rates.loss = 0.05;
      plan.arq.enabled = true;
      plan.seed = ctx.seed;
      (*tb)->InjectFaults(plan);
    }
    auto q = (*tb)->ParseQuery(kQuery);
    SENSJOIN_RETURN_IF_ERROR(q.status());
    if (ctx.trial % 3 == 0) {
      auto r = (*tb)->MakeExternalJoin().Execute(*q, 0);
      SENSJOIN_RETURN_IF_ERROR(r.status());
    } else {
      auto r = (*tb)->MakeSensJoin().Execute(*q, 0);
      SENSJOIN_RETURN_IF_ERROR(r.status());
    }
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s;
}

}  // namespace
}  // namespace sensjoin::testbed
