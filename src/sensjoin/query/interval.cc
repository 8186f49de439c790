#include "sensjoin/query/interval.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sensjoin::query {

std::ostream& operator<<(std::ostream& os, const Interval& iv) {
  return os << "[" << iv.lo << ", " << iv.hi << "]";
}

Interval Add(const Interval& a, const Interval& b) {
  return {a.lo + b.lo, a.hi + b.hi};
}

Interval Sub(const Interval& a, const Interval& b) {
  return {a.lo - b.hi, a.hi - b.lo};
}

Interval Mul(const Interval& a, const Interval& b) {
  const double p1 = a.lo * b.lo;
  const double p2 = a.lo * b.hi;
  const double p3 = a.hi * b.lo;
  const double p4 = a.hi * b.hi;
  return {std::min({p1, p2, p3, p4}), std::max({p1, p2, p3, p4})};
}

Interval Div(const Interval& a, const Interval& b) {
  if (b.lo <= 0.0 && b.hi >= 0.0) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    return {-kInf, kInf};
  }
  return Mul(a, Interval{1.0 / b.hi, 1.0 / b.lo});
}

Interval Neg(const Interval& a) { return {-a.hi, -a.lo}; }

Interval Abs(const Interval& a) {
  if (a.lo >= 0.0) return a;
  if (a.hi <= 0.0) return {-a.hi, -a.lo};
  return {0.0, std::max(-a.lo, a.hi)};
}

Interval Square(const Interval& a) {
  const double lo2 = a.lo * a.lo;
  const double hi2 = a.hi * a.hi;
  if (a.lo >= 0.0) return {lo2, hi2};
  if (a.hi <= 0.0) return {hi2, lo2};
  return {0.0, std::max(lo2, hi2)};
}

Interval Sqrt(const Interval& a) {
  const double lo = std::max(0.0, a.lo);
  const double hi = std::max(0.0, a.hi);
  return {std::sqrt(lo), std::sqrt(hi)};
}

Interval Min(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval Max(const Interval& a, const Interval& b) {
  return {std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Tri Lt(const Interval& a, const Interval& b) {
  if (a.hi < b.lo) return Tri::kTrue;
  if (a.lo >= b.hi) return Tri::kFalse;
  return Tri::kMaybe;
}

Tri Le(const Interval& a, const Interval& b) {
  if (a.hi <= b.lo) return Tri::kTrue;
  if (a.lo > b.hi) return Tri::kFalse;
  return Tri::kMaybe;
}

Tri Gt(const Interval& a, const Interval& b) { return Lt(b, a); }

Tri Ge(const Interval& a, const Interval& b) { return Le(b, a); }

Tri Eq(const Interval& a, const Interval& b) {
  if (a.hi < b.lo || b.hi < a.lo) return Tri::kFalse;
  if (a.lo == a.hi && b.lo == b.hi && a.lo == b.lo) return Tri::kTrue;
  return Tri::kMaybe;
}

Tri Ne(const Interval& a, const Interval& b) { return Not(Eq(a, b)); }

Tri And(Tri a, Tri b) {
  if (a == Tri::kFalse || b == Tri::kFalse) return Tri::kFalse;
  if (a == Tri::kTrue && b == Tri::kTrue) return Tri::kTrue;
  return Tri::kMaybe;
}

Tri Or(Tri a, Tri b) {
  if (a == Tri::kTrue || b == Tri::kTrue) return Tri::kTrue;
  if (a == Tri::kFalse && b == Tri::kFalse) return Tri::kFalse;
  return Tri::kMaybe;
}

Tri Not(Tri a) {
  switch (a) {
    case Tri::kFalse: return Tri::kTrue;
    case Tri::kTrue: return Tri::kFalse;
    case Tri::kMaybe: return Tri::kMaybe;
  }
  return Tri::kMaybe;
}

}  // namespace sensjoin::query
