#include "sensjoin/query/query.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/query/expr_eval.h"
#include "sensjoin/query/parser.h"

namespace sensjoin::query {
namespace {

/// Flattens an AND tree into its conjuncts.
void SplitConjuncts(std::unique_ptr<Expr> expr,
                    std::vector<std::unique_ptr<Expr>>* out) {
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(std::move(expr->args[0]), out);
    SplitConjuncts(std::move(expr->args[1]), out);
    return;
  }
  out->push_back(std::move(expr));
}

/// Resolves attribute references in `expr` against the alias map and the
/// schema. Unqualified references are allowed only with a single table.
Status ResolveRefs(Expr* expr, const std::map<std::string, int>& alias_index,
                   const data::Schema& schema) {
  if (expr->kind == ExprKind::kAttrRef) {
    if (expr->table.empty()) {
      if (alias_index.size() != 1) {
        return Status::InvalidArgument(
            "unqualified attribute '" + expr->attr +
            "' is ambiguous with multiple relations in FROM");
      }
      expr->table_index = alias_index.begin()->second;
    } else {
      auto it = alias_index.find(expr->table);
      if (it == alias_index.end()) {
        return Status::InvalidArgument("unknown table alias '" + expr->table +
                                       "'");
      }
      expr->table_index = it->second;
    }
    expr->attr_index = schema.IndexOf(expr->attr);
    if (expr->attr_index < 0) {
      return Status::InvalidArgument("unknown attribute '" + expr->attr + "'");
    }
    return Status::Ok();
  }
  for (auto& a : expr->args) {
    SENSJOIN_RETURN_IF_ERROR(ResolveRefs(a.get(), alias_index, schema));
  }
  return Status::Ok();
}

/// Collects (table_index -> attr indices) over a resolved expression.
void CollectAttrRefs(const Expr& expr,
                     std::map<int, std::set<int>>* by_table) {
  if (expr.kind == ExprKind::kAttrRef) {
    (*by_table)[expr.table_index].insert(expr.attr_index);
    return;
  }
  for (const auto& a : expr.args) CollectAttrRefs(*a, by_table);
}

std::vector<int> SortedVector(const std::set<int>& s) {
  return std::vector<int>(s.begin(), s.end());
}

}  // namespace

StatusOr<AnalyzedQuery> AnalyzedQuery::Analyze(ParsedQuery parsed,
                                               const data::Schema& schema) {
  AnalyzedQuery q;
  q.schema_ = schema;
  q.mode_ = parsed.mode;
  q.sample_period_s_ = parsed.sample_period_s;
  q.select_star_ = parsed.select_star;

  if (parsed.from.empty()) {
    return Status::InvalidArgument("FROM list is empty");
  }

  std::map<std::string, int> alias_index;
  for (size_t i = 0; i < parsed.from.size(); ++i) {
    const TableRef& ref = parsed.from[i];
    if (!alias_index.emplace(ref.alias, static_cast<int>(i)).second) {
      return Status::InvalidArgument("duplicate table alias '" + ref.alias +
                                     "'");
    }
    AnalyzedTable table;
    table.relation = ref.relation;
    table.alias = ref.alias;
    q.tables_.push_back(std::move(table));
  }

  // SELECT list.
  int aggregate_items = 0;
  for (SelectItem& item : parsed.select) {
    if (item.aggregate != AggregateKind::kNone) ++aggregate_items;
    if (item.expr != nullptr) {
      SENSJOIN_RETURN_IF_ERROR(
          ResolveRefs(item.expr.get(), alias_index, schema));
      SENSJOIN_RETURN_IF_ERROR(
          ValidateExpr(*item.expr, /*expect_boolean=*/false));
    } else if (item.aggregate != AggregateKind::kCount) {
      return Status::Internal("select item without expression");
    }
    q.select_.push_back(std::move(item));
  }
  if (aggregate_items > 0 &&
      aggregate_items != static_cast<int>(q.select_.size())) {
    return Status::InvalidArgument(
        "mixing aggregate and plain select items requires GROUP BY, which is "
        "not supported");
  }
  q.has_aggregates_ = aggregate_items > 0;
  if (q.select_star_ && !q.select_.empty()) {
    return Status::Internal("SELECT * with explicit items");
  }

  // WHERE: split into per-table selections and join predicates.
  std::vector<std::unique_ptr<Expr>> per_table_selection_conjuncts;
  if (parsed.where != nullptr) {
    SENSJOIN_RETURN_IF_ERROR(
        ResolveRefs(parsed.where.get(), alias_index, schema));
    SENSJOIN_RETURN_IF_ERROR(
        ValidateExpr(*parsed.where, /*expect_boolean=*/true));
    std::vector<std::unique_ptr<Expr>> conjuncts;
    SplitConjuncts(std::move(parsed.where), &conjuncts);
    for (auto& conjunct : conjuncts) {
      std::set<int> tables;
      conjunct->CollectTableIndices(&tables);
      if (tables.size() <= 1) {
        const int t = tables.empty() ? 0 : *tables.begin();
        AnalyzedTable& table = q.tables_[t];
        if (table.selection == nullptr) {
          table.selection = std::move(conjunct);
        } else {
          table.selection = Expr::Binary(
              BinaryOp::kAnd, std::move(table.selection), std::move(conjunct));
        }
      } else {
        q.join_predicates_.push_back(std::move(conjunct));
      }
    }
  }

  if (q.tables_.size() >= 2 && q.join_predicates_.empty()) {
    return Status::InvalidArgument(
        "query joins multiple relations but has no join predicate "
        "(cross products are not supported)");
  }

  // Join attributes per table.
  {
    std::map<int, std::set<int>> join_attrs;
    for (const auto& p : q.join_predicates_) CollectAttrRefs(*p, &join_attrs);
    for (auto& [t, attrs] : join_attrs) {
      q.tables_[t].join_attr_indices = SortedVector(attrs);
    }
  }

  // Shipped attributes per table: SELECT refs plus join attributes.
  {
    std::map<int, std::set<int>> shipped;
    for (const SelectItem& item : q.select_) {
      if (item.expr != nullptr) CollectAttrRefs(*item.expr, &shipped);
    }
    for (int t = 0; t < q.num_tables(); ++t) {
      std::set<int> attrs = shipped.count(t) ? shipped[t] : std::set<int>{};
      for (int a : q.tables_[t].join_attr_indices) attrs.insert(a);
      if (q.select_star_) {
        for (int a = 0; a < schema.num_attributes(); ++a) attrs.insert(a);
      }
      q.tables_[t].queried_attr_indices = SortedVector(attrs);
    }
  }

  // Rough query wire size for dissemination accounting: a fixed header plus
  // a few bytes per select item, table and predicate node.
  size_t bytes = 8;
  bytes += 4 * q.select_.size();
  bytes += 4 * q.tables_.size();
  for (const auto& p : q.join_predicates_) bytes += p->ToString().size() / 2;
  for (const auto& t : q.tables_) {
    if (t.selection != nullptr) bytes += t.selection->ToString().size() / 2;
  }
  q.query_wire_bytes_ = bytes;

  return q;
}

StatusOr<AnalyzedQuery> AnalyzedQuery::FromString(const std::string& sql,
                                                  const data::Schema& schema) {
  SENSJOIN_ASSIGN_OR_RETURN(ParsedQuery parsed, Parse(sql));
  return Analyze(std::move(parsed), schema);
}

int AnalyzedQuery::JoinAttrTupleBytes(int i) const {
  return schema_.ProjectionWireBytes(tables_[i].join_attr_indices);
}

int AnalyzedQuery::QueriedTupleBytes(int i) const {
  return schema_.ProjectionWireBytes(tables_[i].queried_attr_indices);
}

std::vector<int> AnalyzedQuery::TablesOfRelation(
    const std::string& relation_name) const {
  std::vector<int> out;
  for (int i = 0; i < num_tables(); ++i) {
    if (tables_[i].relation == relation_name) out.push_back(i);
  }
  return out;
}

std::vector<int> AnalyzedQuery::JoinAttrIndices() const {
  std::set<int> attrs;
  for (const AnalyzedTable& table : tables_) {
    attrs.insert(table.join_attr_indices.begin(),
                 table.join_attr_indices.end());
  }
  return SortedVector(attrs);
}

std::vector<int> AnalyzedQuery::UnionQueriedAttrIndices(
    const std::string& relation_name) const {
  std::set<int> attrs;
  for (int t : TablesOfRelation(relation_name)) {
    attrs.insert(tables_[t].queried_attr_indices.begin(),
                 tables_[t].queried_attr_indices.end());
  }
  return SortedVector(attrs);
}

std::vector<std::string> AnalyzedQuery::RelationNames() const {
  std::vector<std::string> names;
  for (const AnalyzedTable& t : tables_) {
    if (std::find(names.begin(), names.end(), t.relation) == names.end()) {
      names.push_back(t.relation);
    }
  }
  return names;
}

}  // namespace sensjoin::query
