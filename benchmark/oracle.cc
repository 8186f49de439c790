#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace sensjoin::perf {

Expected BruteForceJoin(const std::vector<Reading>& r,
                        const PairPredicate& pred) {
  Expected out;
  std::vector<char> in_result(r.size(), 0);
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < r.size(); ++j) {
      if (!pred(r[i], r[j])) continue;
      ++out.matched;
      in_result[i] = 1;
      in_result[j] = 1;
    }
  }
  out.contributing =
      static_cast<size_t>(std::count(in_result.begin(), in_result.end(), 1));
  return out;
}

Expected SortedTempDifferenceJoin(const std::vector<Reading>& r,
                                  double delta) {
  std::vector<double> temps;
  temps.reserve(r.size());
  for (const Reading& n : r) temps.push_back(n.temp);
  std::sort(temps.begin(), temps.end());
  const double hottest = temps.back();
  Expected out;
  for (const Reading& n : r) {
    // a - b shrinks as b grows, so the B partners of `n` form a prefix.
    const auto end = std::partition_point(
        temps.begin(), temps.end(),
        [&](double b) { return n.temp - b > delta; });
    const uint64_t partners = static_cast<uint64_t>(end - temps.begin());
    out.matched += partners;
    // n is in the result as A when it has a partner, and as B when the
    // hottest node is one of its A partners.
    if (partners > 0 || hottest - n.temp > delta) ++out.contributing;
  }
  return out;
}

PairPredicate TempDifferenceAbove(double delta) {
  return [delta](const Reading& a, const Reading& b) {
    return a.temp - b.temp > delta;
  };
}

PairPredicate CloseTempFarApart(double dmin) {
  return [dmin](const Reading& a, const Reading& b) {
    const double dx = a.x - b.x;
    const double dy = a.y - b.y;
    return std::abs(a.temp - b.temp) < 0.3 && std::sqrt(dx * dx + dy * dy) > dmin;
  };
}

PairPredicate SelectiveTempDifferenceAbove(int k, double delta) {
  const double bound = -static_cast<double>(k);
  return [bound, delta](const Reading& a, const Reading& b) {
    return a.hum > bound && a.temp - b.temp > delta;
  };
}

}  // namespace sensjoin::perf
