#ifndef SENSJOIN_BENCHMARK_ORACLE_H_
#define SENSJOIN_BENCHMARK_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "workloads.h"

namespace sensjoin::perf {

/// What an oracle knows of a self-join result: the ordered (A, B) pairs
/// that satisfy the query, and the distinct nodes in them.
struct Expected {
  uint64_t matched = 0;
  size_t contributing = 0;

  friend bool operator==(const Expected& a, const Expected& b) {
    return a.matched == b.matched && a.contributing == b.contributing;
  }
};

/// The WHERE clause of a self-join `sensors A, sensors B`, written out in
/// plain C++ with the same floating-point expressions the query text has.
using PairPredicate = std::function<bool(const Reading& a, const Reading& b)>;

/// Evaluates `pred` on every ordered pair: the reference for deployments of
/// up to a few thousand nodes. Shares no code with query/ or join/.
Expected BruteForceJoin(const std::vector<Reading>& r,
                        const PairPredicate& pred);

/// `A.temp - B.temp > delta` in O(n log n): for each A, the partners are a
/// prefix of the readings sorted by temp, found by binary search with the
/// exact expression evaluated at each probe, so rounding at the boundary
/// matches a pairwise evaluation.
Expected SortedTempDifferenceJoin(const std::vector<Reading>& r, double delta);

PairPredicate TempDifferenceAbove(double delta);
PairPredicate CloseTempFarApart(double dmin);
PairPredicate SelectiveTempDifferenceAbove(int k, double delta);

}  // namespace sensjoin::perf

#endif  // SENSJOIN_BENCHMARK_ORACLE_H_
