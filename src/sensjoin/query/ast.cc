#include "sensjoin/query/ast.h"

#include <bit>
#include <charconv>
#include <cstdint>
#include <sstream>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::query {

bool IsBooleanOp(BinaryOp op) {
  return IsComparisonOp(op) || op == BinaryOp::kAnd || op == BinaryOp::kOr;
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kEq:
    case BinaryOp::kNe:
      return true;
    default:
      return false;
  }
}

const char* BinaryOpSymbol(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

const char* AggregateKindName(AggregateKind k) {
  switch (k) {
    case AggregateKind::kNone: return "";
    case AggregateKind::kMin: return "MIN";
    case AggregateKind::kMax: return "MAX";
    case AggregateKind::kSum: return "SUM";
    case AggregateKind::kAvg: return "AVG";
    case AggregateKind::kCount: return "COUNT";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Literal(double v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = v;
  return e;
}

std::unique_ptr<Expr> Expr::AttrRef(std::string table, std::string attr) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAttrRef;
  e->table = std::move(table);
  e->attr = std::move(attr);
  return e;
}

std::unique_ptr<Expr> Expr::Unary(UnaryOp op, std::unique_ptr<Expr> x) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->args.push_back(std::move(x));
  return e;
}

std::unique_ptr<Expr> Expr::Binary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->args.push_back(std::move(lhs));
  e->args.push_back(std::move(rhs));
  return e;
}

std::unique_ptr<Expr> Expr::Func(std::string name,
                                 std::vector<std::unique_ptr<Expr>> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunc;
  e->func = std::move(name);
  e->args = std::move(args);
  return e;
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->table = table;
  e->attr = attr;
  e->table_index = table_index;
  e->attr_index = attr_index;
  e->unary_op = unary_op;
  e->binary_op = binary_op;
  e->func = func;
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

std::string Expr::ToString(bool exact_literals) const {
  std::ostringstream os;
  switch (kind) {
    case ExprKind::kLiteral:
      if (exact_literals) {
        char buf[32];
        const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, literal);
        SENSJOIN_CHECK(ec == std::errc());
        os.write(buf, end - buf);
      } else {
        os << literal;
      }
      break;
    case ExprKind::kAttrRef:
      if (!table.empty()) os << table << ".";
      os << attr;
      break;
    case ExprKind::kUnary:
      if (unary_op == UnaryOp::kNot) {
        os << "NOT (" << args[0]->ToString(exact_literals) << ")";
      } else {
        os << "-(" << args[0]->ToString(exact_literals) << ")";
      }
      break;
    case ExprKind::kBinary:
      os << "(" << args[0]->ToString(exact_literals) << " "
         << BinaryOpSymbol(binary_op) << " "
         << args[1]->ToString(exact_literals) << ")";
      break;
    case ExprKind::kFunc:
      os << func << "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) os << ", ";
        os << args[i]->ToString(exact_literals);
      }
      os << ")";
      break;
  }
  return os.str();
}

bool SameExpr(const Expr& a, const Expr& b) {
  if (a.kind != b.kind || a.args.size() != b.args.size()) return false;
  switch (a.kind) {
    case ExprKind::kLiteral:
      return std::bit_cast<uint64_t>(a.literal) ==
             std::bit_cast<uint64_t>(b.literal);
    case ExprKind::kAttrRef:
      if (a.table_index < 0 || b.table_index < 0) {
        return a.table == b.table && a.attr == b.attr;
      }
      return a.table_index == b.table_index && a.attr_index == b.attr_index;
    case ExprKind::kUnary:
      if (a.unary_op != b.unary_op) return false;
      break;
    case ExprKind::kBinary:
      if (a.binary_op != b.binary_op) return false;
      break;
    case ExprKind::kFunc:
      if (a.func != b.func) return false;
      break;
  }
  for (size_t i = 0; i < a.args.size(); ++i) {
    if (!SameExpr(*a.args[i], *b.args[i])) return false;
  }
  return true;
}

void Expr::CollectTableIndices(std::set<int>* out) const {
  if (kind == ExprKind::kAttrRef) {
    SENSJOIN_CHECK_GE(table_index, 0) << "unresolved attribute" << attr;
    out->insert(table_index);
    return;
  }
  for (const auto& a : args) a->CollectTableIndices(out);
}

}  // namespace sensjoin::query
