#ifndef SENSJOIN_QUERY_INTERVAL_H_
#define SENSJOIN_QUERY_INTERVAL_H_

#include <cstdint>
#include <ostream>

namespace sensjoin::query {

/// A closed real interval [lo, hi]. Used to evaluate join predicates over
/// quantized join-attribute tuples conservatively: a quantization cell maps
/// each attribute to the interval of values it may hold, and a predicate is
/// kept unless it is certainly false (footnote 2 of the paper: the
/// pre-computation join must be adjusted so quantization never drops a
/// joining tuple — false positives are allowed, false negatives are not).
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  /// Degenerate interval holding exactly `v`.
  static Interval Single(double v) { return {v, v}; }

  bool Contains(double v) const { return lo <= v && v <= hi; }
  double width() const { return hi - lo; }

  friend bool operator==(const Interval& a, const Interval& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
};

std::ostream& operator<<(std::ostream& os, const Interval& iv);

// Interval arithmetic. All operations are outward-conservative: the result
// contains every value obtainable from operands within the inputs.
Interval Add(const Interval& a, const Interval& b);
Interval Sub(const Interval& a, const Interval& b);
Interval Mul(const Interval& a, const Interval& b);
/// Division widens to (-inf, inf) when the divisor straddles zero.
Interval Div(const Interval& a, const Interval& b);
Interval Neg(const Interval& a);
Interval Abs(const Interval& a);
/// Tight square: bounded below by 0 when `a` straddles zero, unlike
/// Mul(a, a), whose lo*hi cross terms admit spurious negative values.
Interval Square(const Interval& a);
/// Square root; negative parts of the operand are clamped to zero.
Interval Sqrt(const Interval& a);
Interval Min(const Interval& a, const Interval& b);
Interval Max(const Interval& a, const Interval& b);

/// Three-valued truth for predicates over intervals: certainly false,
/// possibly true, certainly true.
enum class Tri : uint8_t { kFalse, kMaybe, kTrue };

Tri Lt(const Interval& a, const Interval& b);
Tri Le(const Interval& a, const Interval& b);
Tri Gt(const Interval& a, const Interval& b);
Tri Ge(const Interval& a, const Interval& b);
Tri Eq(const Interval& a, const Interval& b);
Tri Ne(const Interval& a, const Interval& b);

Tri And(Tri a, Tri b);
Tri Or(Tri a, Tri b);
Tri Not(Tri a);

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_INTERVAL_H_
