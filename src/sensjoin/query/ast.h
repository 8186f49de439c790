#ifndef SENSJOIN_QUERY_AST_H_
#define SENSJOIN_QUERY_AST_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace sensjoin::query {

enum class ExprKind {
  kLiteral,  ///< numeric constant
  kAttrRef,  ///< [table.]attribute
  kUnary,    ///< -x, NOT x
  kBinary,   ///< arithmetic, comparison, AND/OR
  kFunc,     ///< abs, distance, sqrt, min, max
};

enum class UnaryOp { kNeg, kNot };

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

/// True for comparison and logical operators (boolean-valued result).
bool IsBooleanOp(BinaryOp op);
/// True for the comparison operators only.
bool IsComparisonOp(BinaryOp op);
const char* BinaryOpSymbol(BinaryOp op);

/// An expression tree node. One struct with a kind discriminant keeps
/// traversal (evaluation, analysis, printing) in simple switches.
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  double literal = 0.0;

  // kAttrRef: as written in the query ...
  std::string table;  ///< alias; empty if unqualified
  std::string attr;
  // ... and as resolved by Analyze():
  int table_index = -1;  ///< index into the query's FROM list
  int attr_index = -1;   ///< index into the relation schema

  // kUnary / kBinary
  UnaryOp unary_op = UnaryOp::kNeg;
  BinaryOp binary_op = BinaryOp::kAdd;

  // kFunc: lowercased function name
  std::string func;

  /// Operands: 1 for kUnary, 2 for kBinary, function arity for kFunc.
  std::vector<std::unique_ptr<Expr>> args;

  // --- Factories ---------------------------------------------------------
  static std::unique_ptr<Expr> Literal(double v);
  static std::unique_ptr<Expr> AttrRef(std::string table, std::string attr);
  static std::unique_ptr<Expr> Unary(UnaryOp op, std::unique_ptr<Expr> x);
  static std::unique_ptr<Expr> Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                      std::unique_ptr<Expr> rhs);
  static std::unique_ptr<Expr> Func(std::string name,
                                    std::vector<std::unique_ptr<Expr>> args);

  std::unique_ptr<Expr> Clone() const;

  /// Unparses the expression (canonical form, fully parenthesized).
  /// Literals print to 6 significant digits, as in SELECT labels; with
  /// `exact_literals`, in the shortest form that reads back to the same
  /// double, so distinct literals print distinctly.
  std::string ToString(bool exact_literals = false) const;

  /// Inserts the resolved table indices of every attribute reference in this
  /// subtree into `out`. Requires prior resolution by Analyze().
  void CollectTableIndices(std::set<int>* out) const;
};

/// True if `a` and `b` are the same tree: kinds, operators and functions
/// equal, attribute references to the same resolved (table, attribute) —
/// or, unresolved, the same names — and literals bit for bit.
bool SameExpr(const Expr& a, const Expr& b);

/// Aggregate applied to a SELECT item (Q1 uses MIN; Sec. III).
enum class AggregateKind { kNone, kMin, kMax, kSum, kAvg, kCount };

const char* AggregateKindName(AggregateKind k);

/// One item of the SELECT list.
struct SelectItem {
  AggregateKind aggregate = AggregateKind::kNone;
  std::unique_ptr<Expr> expr;  ///< null only for COUNT(*)
  std::string label;           ///< output column name (AS alias or unparse)
};

/// One entry of the FROM list.
struct TableRef {
  std::string relation;
  std::string alias;  ///< defaults to the relation name
};

/// The raw parse of a query, before semantic analysis.
struct ParsedQuery {
  enum class Mode { kOnce, kSamplePeriod };

  bool select_star = false;
  std::vector<SelectItem> select;
  std::vector<TableRef> from;
  std::unique_ptr<Expr> where;  ///< null if absent
  Mode mode = Mode::kOnce;
  double sample_period_s = 0.0;
};

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_AST_H_
