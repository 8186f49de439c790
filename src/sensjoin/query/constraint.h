#ifndef SENSJOIN_QUERY_CONSTRAINT_H_
#define SENSJOIN_QUERY_CONSTRAINT_H_

#include <cstdint>
#include <vector>

#include "sensjoin/query/ast.h"
#include "sensjoin/query/interval.h"
#include "sensjoin/query/interval_eval.h"

namespace sensjoin::query {

/// A compiled, conservative bound on one attribute of one table, derived
/// from a join predicate by inverting the expression tree toward a single
/// attribute reference of the "probe" table. The base station's filter and
/// exact joins use these to restrict the candidates probed at each nesting
/// level to a contiguous range of a sorted per-attribute index.
///
/// Soundness contract (what makes index pruning bit-exact): for any interval
/// assignment of the *other* tables supplied via `ctx`,
///
///   EvalTri(pred, ctx') != kFalse  implies
///   ctx'.Value(probe_table, attr_index()) intersects AllowedRange(ctx)
///
/// where ctx' extends ctx with any interval for the probe attribute. The
/// implication is with respect to EvalTri's actual (outward-conservative)
/// interval arithmetic, not ideal real semantics, so a key skipped by the
/// range is guaranteed to be one an exhaustive nested-loop join would have
/// rejected at this predicate. The range may be wider than necessary; the
/// caller re-evaluates the predicate on every surviving candidate.
///
/// Holds borrowed pointers into the predicate tree; the constraint must not
/// outlive the AnalyzedQuery it came from.
class ProbeConstraint {
 public:
  /// Schema attribute index (of the probe table) that the range bounds.
  int attr_index() const { return attr_index_; }

  /// The conservative allowed interval for the probe attribute, given the
  /// other referenced tables' intervals. Every expression referenced by the
  /// compiled steps must be evaluable under `ctx` (i.e. all non-probe tables
  /// assigned). Returns [-inf, +inf] when the bound degenerates at runtime
  /// (e.g. a multiplier interval straddling zero, or non-finite operands in
  /// a product); returns an inverted interval (lo > hi) when the predicate
  /// is certainly false for every probe value.
  Interval AllowedRange(const IntervalContext& ctx) const;

  /// Extracts the probe constraints on attributes of FROM entry
  /// `probe_table` implied by `pred` (a resolved, validated predicate).
  /// Conjunctions contribute the union of their children's constraints;
  /// unsupported shapes (OR, NOT, !=, expressions referencing the probe
  /// table on both comparison sides or through uninvertible operators)
  /// contribute none. An empty result means the predicate cannot prune via
  /// an index and must be evaluated exhaustively.
  static std::vector<ProbeConstraint> Extract(const Expr& pred,
                                              int probe_table);

 private:
  /// How the initial target interval for the probe-side expression is formed
  /// from the opposite comparison operand.
  enum class Init : uint8_t {
    kUpperFromHi,  ///< target = [-inf, Eval(other).hi]   (probe side <  other)
    kLowerFromLo,  ///< target = [Eval(other).lo, +inf]   (probe side >  other)
    kRange,        ///< target = Eval(other)              (probe side == other)
  };

  /// One inversion step, applied while walking from the comparison root down
  /// to the probe attribute reference. `other` is the sibling subexpression
  /// (null for the unary steps), evaluated under the probe-time context.
  enum class StepKind : uint8_t {
    kSubOther,      ///< through Add:      target -= Eval(other)
    kAddOther,      ///< through Sub lhs:  target += Eval(other)
    kSubFromOther,  ///< through Sub rhs:  target = Eval(other) - target
    kNeg,           ///< through Neg:      target = -target
    kSymHull,       ///< through Abs/distance: target = [-target.hi, target.hi]
    kSqrtInv,       ///< through Sqrt:     target = [target.lo^2 | -inf, target.hi^2]
    kDivOther,      ///< through Mul:      target /= Eval(other) (sign-definite)
    kMulOther,      ///< through Div lhs:  target *= Eval(other) (sign-definite)
  };

  struct Step {
    StepKind kind;
    const Expr* other;  ///< borrowed; null for kNeg/kSymHull/kSqrtInv
  };

  friend class ConstraintExtractor;

  Init init_ = Init::kRange;
  const Expr* init_other_ = nullptr;  ///< borrowed comparison operand
  std::vector<Step> steps_;
  int attr_index_ = -1;
};

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_CONSTRAINT_H_
