#ifndef SENSJOIN_COMMON_RNG_H_
#define SENSJOIN_COMMON_RNG_H_

#include <cstdint>

namespace sensjoin {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// SplitMix64). All randomness in the library flows through this class so
/// that simulations are exactly reproducible for a given seed.
class Rng {
 public:
  /// Seeds the generator; equal seeds yield identical sequences.
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Bernoulli trial with success probability p.
  bool NextBool(double p);

  /// Derives an independent generator; useful for giving each component its
  /// own stream while keeping global determinism.
  Rng Fork();

 private:
  uint64_t state_[4];
};

}  // namespace sensjoin

#endif  // SENSJOIN_COMMON_RNG_H_
