#include "sensjoin/testbed/parallel.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace sensjoin::testbed {
namespace {

TEST(DeriveTrialSeedTest, DistinctAcrossTrialsAndSweeps) {
  std::set<uint64_t> seen;
  for (uint64_t sweep : {0ULL, 1ULL, 42ULL, 0xFFFFFFFFFFFFFFFFULL}) {
    for (uint64_t trial = 0; trial < 64; ++trial) {
      seen.insert(DeriveTrialSeed(sweep, trial));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);
}

TEST(DeriveTrialSeedTest, Deterministic) {
  EXPECT_EQ(DeriveTrialSeed(42, 7), DeriveTrialSeed(42, 7));
  EXPECT_NE(DeriveTrialSeed(42, 7), DeriveTrialSeed(43, 7));
  EXPECT_NE(DeriveTrialSeed(42, 7), DeriveTrialSeed(42, 8));
}

TEST(ResolveThreadCountTest, ExplicitRequestWins) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
}

TEST(ResolveThreadCountTest, FallsBackToPositiveValue) {
  // No flag, whatever the env: the result must be a usable count.
  EXPECT_GE(ResolveThreadCount(0), 1);
}

TEST(ParseThreadsFlagTest, StripsSeparatedForm) {
  const char* raw[] = {"bench", "--threads", "4", "123", nullptr};
  char* argv[5];
  for (int i = 0; i < 4; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[4] = nullptr;
  int argc = 4;
  EXPECT_EQ(ParseThreadsFlag(&argc, argv), 4);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[0], "bench");
  EXPECT_STREQ(argv[1], "123");
  EXPECT_EQ(argv[2], nullptr);
}

TEST(ParseThreadsFlagTest, StripsEqualsForm) {
  const char* raw[] = {"bench", "77", "--threads=8", nullptr};
  char* argv[4];
  for (int i = 0; i < 3; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[3] = nullptr;
  int argc = 3;
  EXPECT_EQ(ParseThreadsFlag(&argc, argv), 8);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "77");
}

TEST(ParseThreadsFlagTest, AbsentReturnsZero) {
  const char* raw[] = {"bench", "123", nullptr};
  char* argv[3];
  for (int i = 0; i < 2; ++i) argv[i] = const_cast<char*>(raw[i]);
  argv[2] = nullptr;
  int argc = 2;
  EXPECT_EQ(ParseThreadsFlag(&argc, argv), 0);
  EXPECT_EQ(argc, 2);
}

TEST(ParseSeedArgTest, ReadsDecimalSeed) {
  char bench[] = "bench";
  char seed[] = "7";
  char* argv[] = {bench, seed, nullptr};
  EXPECT_EQ(ParseSeedArg(2, argv, 42), 7u);
}

TEST(ParseSeedArgTest, AbsentReturnsDefault) {
  char bench[] = "bench";
  char* argv[] = {bench, nullptr};
  EXPECT_EQ(ParseSeedArg(1, argv, 42), 42u);
}

// Death tests run before the suite's threaded tests, so the forked child
// starts single-threaded.
TEST(ParseSeedArgDeathTest, LeftoverFlagExits) {
  char bench[] = "bench";
  char flag[] = "--engine=windowed";
  char* argv[] = {bench, flag, nullptr};
  EXPECT_EXIT(ParseSeedArg(2, argv, 42), ::testing::ExitedWithCode(2),
              "invalid seed '--engine=windowed'");
}

TEST(ParseSeedArgDeathTest, TrailingCharactersExit) {
  char bench[] = "bench";
  char seed[] = "12abc";
  char* argv[] = {bench, seed, nullptr};
  EXPECT_EXIT(ParseSeedArg(2, argv, 42), ::testing::ExitedWithCode(2),
              "invalid seed '12abc'");
}

TEST(ParallelRunnerTest, ZeroTrialsIsOkAndEmpty) {
  ParallelRunner runner(4);
  auto r = runner.Run(0, /*sweep_seed=*/42,
                      [](const TrialContext& ctx) { return ctx.trial; });
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());

  int calls = 0;
  auto s = runner.RunTrials(0, 42, [&](const TrialContext&) {
    ++calls;
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 0);
}

TEST(ParallelRunnerTest, OrderedResultsRegardlessOfCompletionOrder) {
  ParallelRunner runner(4);
  // Early trials sleep longest, so completion order is reversed from
  // trial order if the pool really runs concurrently.
  auto r = runner.Run(16, /*sweep_seed=*/1, [](const TrialContext& ctx) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15 - ctx.trial));
    return ctx.trial * 10;
  });
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ((*r)[i], i * 10);
}

TEST(ParallelRunnerTest, SeedsMatchDerivation) {
  ParallelRunner runner(2);
  auto r = runner.Run(8, /*sweep_seed=*/99,
                      [](const TrialContext& ctx) { return ctx.seed; });
  ASSERT_TRUE(r.ok());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ((*r)[i], DeriveTrialSeed(99, static_cast<uint64_t>(i)));
  }
}

TEST(ParallelRunnerTest, StatusPropagatesLowestTrialIndex) {
  ParallelRunner runner(4);
  auto s = runner.RunTrials(32, 7, [](const TrialContext& ctx) {
    if (ctx.trial == 5 || ctx.trial == 20) {
      return Status::InvalidArgument("trial " + std::to_string(ctx.trial));
    }
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "trial 5");
}

TEST(ParallelRunnerTest, ExceptionBecomesInternalStatus) {
  ParallelRunner runner(3);
  auto s = runner.RunTrials(6, 7, [](const TrialContext& ctx) -> Status {
    if (ctx.trial == 2) throw std::runtime_error("boom");
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("boom"), std::string::npos);
}

TEST(ParallelRunnerTest, ExceptionBecomesInternalStatusInline) {
  ParallelRunner runner(1);
  auto s = runner.RunTrials(6, 7, [](const TrialContext& ctx) -> Status {
    if (ctx.trial == 2) throw 42;  // non-std exception
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

TEST(ParallelRunnerTest, EarlyErrorStopsClaimingNewTrials) {
  ParallelRunner runner(2);
  std::atomic<int> executed{0};
  auto s = runner.RunTrials(1000, 7, [&](const TrialContext& ctx) -> Status {
    executed.fetch_add(1);
    if (ctx.trial == 0) {
      return Status::Internal("fail fast");
    }
    // Give the failing trial time to flip the shutdown flag.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return Status::Ok();
  });
  ASSERT_FALSE(s.ok());
  // Far fewer than 1000 trials should have started: the pool abandons
  // unclaimed work after the first failure.
  EXPECT_LT(executed.load(), 100);
}

TEST(ParallelRunnerTest, OversubscriptionRunsEveryTrialExactlyOnce) {
  ParallelRunner runner(8);
  const int kTrials = 500;  // trials >> threads
  std::vector<std::atomic<int>> counts(kTrials);
  for (auto& c : counts) c.store(0);
  auto s = runner.RunTrials(kTrials, 3, [&](const TrialContext& ctx) {
    counts[static_cast<size_t>(ctx.trial)].fetch_add(1);
    return Status::Ok();
  });
  ASSERT_TRUE(s.ok());
  for (int i = 0; i < kTrials; ++i) EXPECT_EQ(counts[i].load(), 1);
}

TEST(ParallelRunnerTest, SingleThreadMatchesMultiThreadResults) {
  auto fn = [](const TrialContext& ctx) {
    return static_cast<int>(ctx.seed % 1000) + ctx.trial;
  };
  auto seq = ParallelRunner(1).Run(64, 5, fn);
  auto par = ParallelRunner(8).Run(64, 5, fn);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());
  EXPECT_EQ(*seq, *par);
}

TEST(ParallelRunnerTest, MoreThreadsThanTrials) {
  ParallelRunner runner(16);
  auto r = runner.Run(3, 11, [](const TrialContext& ctx) { return ctx.trial; });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace sensjoin::testbed
