#include "sensjoin/testbed/parallel.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

namespace sensjoin::testbed {
namespace {

/// splitmix64 finalizer (Vigna). Bijective on 64-bit values, which
/// guarantees distinct trial inputs map to distinct seeds.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

int EnvThreads() {
  const char* env = std::getenv("SENSJOIN_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || v <= 0 || v > 4096) return 0;
  return static_cast<int>(v);
}

}  // namespace

uint64_t DeriveTrialSeed(uint64_t sweep_seed, uint64_t trial_index) {
  return SplitMix64(sweep_seed + (trial_index + 1) * 0x9E3779B97F4A7C15ULL);
}

int ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const int env = EnvThreads();
  if (env > 0) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ParseThreadsFlag(int* argc, char** argv) {
  int threads = 0;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--threads") == 0 && i + 1 < *argc) {
      threads = std::atoi(argv[i + 1]);
      ++i;  // skip the value
      continue;
    }
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      threads = std::atoi(arg + 10);
      continue;
    }
    argv[out++] = argv[i];
  }
  *argc = out;
  argv[out] = nullptr;
  return threads > 0 ? threads : 0;
}

uint64_t ParseSeedArg(int argc, char** argv, uint64_t default_seed) {
  if (argc <= 1) return default_seed;
  const char* arg = argv[1];
  char* end = nullptr;
  errno = 0;
  const unsigned long long seed = std::strtoull(arg, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(arg[0])) || *end != '\0' ||
      errno == ERANGE) {
    std::fprintf(stderr,
                 "invalid seed '%s' (want a non-negative decimal integer)\n",
                 arg);
    std::exit(2);
  }
  return seed;
}

ParallelRunner::ParallelRunner(int threads)
    : threads_(ResolveThreadCount(threads)) {}

Status ParallelRunner::RunTrials(
    int num_trials, uint64_t sweep_seed,
    const std::function<Status(const TrialContext&)>& fn) const {
  if (num_trials <= 0) return Status::Ok();

  auto run_one = [&](int trial) -> Status {
    TrialContext ctx;
    ctx.trial = trial;
    ctx.seed = DeriveTrialSeed(sweep_seed, static_cast<uint64_t>(trial));
    try {
      return fn(ctx);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("trial ") + std::to_string(trial) +
                              " threw: " + e.what());
    } catch (...) {
      return Status::Internal(std::string("trial ") + std::to_string(trial) +
                              " threw a non-standard exception");
    }
  };

  const int workers = std::min(threads_, num_trials);
  if (workers <= 1) {
    // Inline execution: identical control flow to the pre-pool loops.
    for (int trial = 0; trial < num_trials; ++trial) {
      Status s = run_one(trial);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }

  std::vector<Status> statuses(static_cast<size_t>(num_trials));
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};

  auto worker = [&]() {
    while (!failed.load(std::memory_order_acquire)) {
      const int trial = next.fetch_add(1, std::memory_order_relaxed);
      if (trial >= num_trials) return;
      Status s = run_one(trial);
      if (!s.ok()) {
        statuses[static_cast<size_t>(trial)] = std::move(s);
        // Early shutdown: unclaimed trials are abandoned. Trials already
        // in flight run to completion (their slots stay valid).
        failed.store(true, std::memory_order_release);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  // Lowest trial index wins, so the reported error does not depend on
  // scheduling order.
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace sensjoin::testbed
