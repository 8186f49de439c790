#ifndef SENSJOIN_TESTBED_PARALLEL_H_
#define SENSJOIN_TESTBED_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sensjoin/common/status.h"
#include "sensjoin/common/statusor.h"

namespace sensjoin::testbed {

/// Derives an independent per-trial seed from a sweep seed. Uses the
/// splitmix64 finalizer over `sweep_seed + (trial_index + 1) * golden`,
/// so every (sweep_seed, trial) pair maps to a well-mixed 64-bit stream
/// regardless of how correlated the inputs are. trial_index is offset by
/// one so that trial 0 does not collapse to splitmix64(sweep_seed), which
/// callers sometimes use directly for a "whole sweep" stream.
uint64_t DeriveTrialSeed(uint64_t sweep_seed, uint64_t trial_index);

/// Resolves the worker-thread count for a ParallelRunner:
///   1. `requested` if > 0 (e.g. from a --threads flag),
///   2. else the SENSJOIN_THREADS environment variable if set and > 0,
///   3. else std::thread::hardware_concurrency() (minimum 1).
int ResolveThreadCount(int requested = 0);

/// Strips a `--threads N` / `--threads=N` argument from (argc, argv) and
/// returns N, or 0 when the flag is absent (letting ResolveThreadCount
/// fall through to the environment). Mutates argv in place so positional
/// arguments (seed, node count) keep their indices for existing parsing.
int ParseThreadsFlag(int* argc, char** argv);

/// Reads a harness's positional seed from argv[1] (after flag parsers
/// have stripped their flags), or returns `default_seed` when absent. A
/// value that is not a plain decimal integer — a leftover or misspelled
/// flag, trailing characters, a sign, an out-of-range number — prints a
/// message and exits with status 2 rather than running with a wrong seed.
uint64_t ParseSeedArg(int argc, char** argv, uint64_t default_seed);

/// Identity of one trial inside a sweep, handed to the trial callback.
struct TrialContext {
  int trial = 0;       ///< 0-based index into the sweep.
  uint64_t seed = 0;   ///< DeriveTrialSeed(sweep_seed, trial).
};

/// A work-queue thread pool for embarrassingly parallel experiment sweeps.
///
/// Trials are claimed from an atomic counter, so long trials do not
/// stall short ones behind a static partition. Results are collected
/// into per-trial slots and returned in trial order, which makes the
/// output of a parallel run byte-identical to a sequential one as long
/// as each trial is self-contained (builds its own Testbed from
/// ctx.seed and touches no shared mutable state). Exceptions escaping a
/// trial are captured as Status rather than tearing down the process,
/// and the first failure (lowest trial index) stops workers from
/// claiming further trials.
///
/// With threads() == 1 the runner executes every trial inline on the
/// calling thread — no pool, no synchronization — so single-threaded
/// sweeps behave exactly like the original sequential loops.
class ParallelRunner {
 public:
  /// `threads` <= 0 defers to ResolveThreadCount() (flag/env/hardware).
  explicit ParallelRunner(int threads = 0);

  int threads() const { return threads_; }

  /// Runs `fn` once per trial in [0, num_trials). Returns the first
  /// (lowest-trial-index) non-OK Status, or OK if every trial succeeded.
  /// Exceptions thrown by `fn` are converted to internal errors. Once any
  /// trial fails, unclaimed trials are skipped.
  Status RunTrials(int num_trials, uint64_t sweep_seed,
                   const std::function<Status(const TrialContext&)>& fn) const;

  /// Like RunTrials but collects one result per trial, returned in trial
  /// order (independent of completion order).
  template <typename Fn>
  auto Run(int num_trials, uint64_t sweep_seed, Fn&& fn) const
      -> StatusOr<std::vector<decltype(fn(TrialContext{}))>> {
    using T = decltype(fn(TrialContext{}));
    std::vector<T> results(static_cast<size_t>(num_trials > 0 ? num_trials
                                                              : 0));
    Status status = RunTrials(
        num_trials, sweep_seed, [&](const TrialContext& ctx) -> Status {
          // Distinct trials write distinct slots; no locking needed.
          results[static_cast<size_t>(ctx.trial)] = fn(ctx);
          return Status::Ok();
        });
    if (!status.ok()) return status;
    return results;
  }

 private:
  int threads_;
};

}  // namespace sensjoin::testbed

#endif  // SENSJOIN_TESTBED_PARALLEL_H_
