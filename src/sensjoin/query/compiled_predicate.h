#ifndef SENSJOIN_QUERY_COMPILED_PREDICATE_H_
#define SENSJOIN_QUERY_COMPILED_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "sensjoin/query/ast.h"
#include "sensjoin/query/interval.h"

namespace sensjoin::query {

/// A join predicate compiled to a flat postfix program over intervals. The
/// filter join evaluates every surviving candidate combination
/// against the full predicate; doing that through the Expr tree pays
/// recursion, virtual context dispatch and a string compare per function
/// node on the hottest path of the base-station join. The compiled form
/// resolves all of that once and evaluates with the *same* interval
/// operations in the same order, so the result is bit-identical to
/// EvalTri(pred, RowIntervalContext(rows)) for every input.
///
/// Holds borrowed pointers into the predicate tree (fallback subtrees); must
/// not outlive the AnalyzedQuery.
class CompiledPredicate {
 public:
  /// Compiles a resolved, validated predicate. Shapes outside the opcode
  /// set fall back to the tree evaluator for the offending subtree, so
  /// compilation always succeeds and never changes semantics.
  static CompiledPredicate Compile(const Expr& pred);

  /// Evaluates over explicit per-table attribute-interval rows: rows[t]
  /// points at FROM entry t's row indexed by schema attribute (may be null
  /// for tables the predicate does not reference).
  Tri Eval(const Interval* const* rows) const;

 private:
  enum class OpCode : uint8_t {
    kPushLit,
    kPushAttr,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kNeg,
    kAbs,
    kSqrt,
    kMin,
    kMax,
    kDistance,  ///< pops x1 y1 x2 y2, pushes sqrt(square(dx) + square(dy))
    kSubAttrs,  ///< fused attr - attr (the band-join hot path)
    kCmpLt,
    kCmpLe,
    kCmpGt,
    kCmpGe,
    kCmpEq,
    kCmpNe,
    kCmpLtLit,  ///< fused compare against a literal right-hand side
    kCmpLeLit,
    kCmpGtLit,
    kCmpGeLit,
    kCmpEqLit,
    kCmpNeLit,
    kAnd,
    kOr,
    kNot,
    kFallbackNum,  ///< EvalInterval(subtree) onto the interval stack
    kFallbackTri,  ///< EvalTri(subtree) onto the truth stack
  };

  struct Op {
    OpCode code;
    int16_t table = 0;   ///< kPushAttr, kSubAttrs (minuend)
    int16_t attr = 0;    ///< kPushAttr, kSubAttrs (minuend)
    int16_t table2 = 0;  ///< kSubAttrs (subtrahend)
    int16_t attr2 = 0;   ///< kSubAttrs (subtrahend)
    double literal = 0.0;
    const Expr* subtree = nullptr;  ///< borrowed; fallback ops only
  };

  void CompileNumeric(const Expr& e);
  void CompileTri(const Expr& e);
  void DetectFastPattern();

  /// Whole-program specializations of the two shapes that dominate the
  /// indexed join's candidate re-evaluation; they run the identical interval
  /// operations without the op-dispatch loop.
  enum class Fast : uint8_t {
    kNone,
    kAbsSubCmpLit,    ///< |attr - attr| cmp literal (band join)
    kDistanceCmpLit,  ///< distance(ax, ay, bx, by) cmp literal
  };

  std::vector<Op> ops_;
  Fast fast_ = Fast::kNone;
};

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_COMPILED_PREDICATE_H_
