#include "sensjoin/join/result.h"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/join_plan.h"
#include "sensjoin/query/expr_eval.h"
#include "sensjoin/query/interval_eval.h"

namespace sensjoin::join {
namespace {

/// Relative width of the exact join's probe-window widening (see Window).
constexpr double kProbeSlack = 1e-9;

void SortUnique(std::vector<sim::NodeId>* nodes) {
  std::sort(nodes->begin(), nodes->end());
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

/// Largest finite |literal| in `e`.
double LiteralMagnitude(const query::Expr& e) {
  double m = e.kind == query::ExprKind::kLiteral && std::isfinite(e.literal)
                 ? std::abs(e.literal)
                 : 0.0;
  for (const auto& arg : e.args) m = std::max(m, LiteralMagnitude(*arg));
  return m;
}

/// EnumerateJoin's domain over full tuples (see join_plan.h): a row is a
/// position in its table's candidate list, and predicates run with scalar
/// semantics, the exact answer.
class ExactDomain : public query::ScalarContext {
 public:
  using Coord = double;
  /// Rows and aggregate sums must come out in nested-loop order.
  static constexpr bool kCandidateOrder = true;

  ExactDomain(const query::AnalyzedQuery& q,
              const std::vector<std::vector<const data::Tuple*>>& per_table,
              size_t* evaluated)
      : per_table_(per_table),
        evaluated_(evaluated),
        candidates_(per_table.size()),
        assignment_(per_table.size(), nullptr) {
    SENSJOIN_CHECK_EQ(static_cast<int>(per_table.size()), q.num_tables());
    for (size_t t = 0; t < per_table.size(); ++t) {
      candidates_[t].resize(per_table[t].size());
      std::iota(candidates_[t].begin(), candidates_[t].end(), 0u);
      for (const data::Tuple* tup : per_table[t]) {
        for (double v : tup->values) {
          if (std::isfinite(v)) magnitude_ = std::max(magnitude_, std::abs(v));
        }
      }
    }
    for (const auto& p : q.join_predicates()) {
      magnitude_ = std::max(magnitude_, LiteralMagnitude(*p));
    }
  }

  double Value(int table, int attr) const override {
    return assignment_[table]->values[attr];
  }

  const std::vector<uint32_t>& Candidates(int t) const {
    return candidates_[t];
  }
  bool Admit(size_t, const JoinPlan::Level& lv, uint32_t row) {
    assignment_[lv.table] = per_table_[lv.table][row];
    for (const query::Expr* pred : lv.preds) {
      ++*evaluated_;
      if (!query::EvalPredicate(*pred, *this)) return false;
    }
    return true;
  }
  /// The probe's AllowedRange over point intervals, widened on each side by
  /// kProbeSlack * (|end| + magnitude_). AllowedRange is sound for interval
  /// arithmetic, while rows are accepted by scalar evaluation; the two run
  /// the same operations up to rounding (interval Div is a*(1/b), scalar
  /// a/b), a few ulps of the largest value or literal involved, and the
  /// slack is ~10^7 ulps of that. Rows with a NaN probe attribute never
  /// match: the constraint's arithmetic carries the NaN into a comparison.
  bool Window(const JoinPlan::Probe& probe, double* lo, double* hi) const {
    const query::Interval allowed =
        probe.constraint.AllowedRange(ProbeContext(this));
    if (!(allowed.lo <= allowed.hi)) return false;
    *lo = allowed.lo;
    *hi = allowed.hi;
    if (std::isfinite(*lo)) *lo -= kProbeSlack * (std::abs(*lo) + magnitude_);
    if (std::isfinite(*hi)) *hi += kProbeSlack * (std::abs(*hi) + magnitude_);
    return true;
  }
  const std::vector<uint32_t>& Index(int t, int attr) {
    auto [it, added] = indexes_.try_emplace({t, attr});
    if (added) {
      auto value = [&](uint32_t row) { return CoordOf(t, row, attr); };
      it->second = candidates_[t];
      std::erase_if(it->second,
                    [&](uint32_t r) { return std::isnan(value(r)); });
      std::ranges::stable_sort(it->second, {}, value);
    }
    return it->second;
  }
  double CoordOf(int t, uint32_t row, int attr) const {
    return per_table_[t][row]->values[attr];
  }

 private:
  /// Point intervals of the current assignment, for AllowedRange.
  struct ProbeContext : query::IntervalContext {
    explicit ProbeContext(const ExactDomain* d) : domain(d) {}
    query::Interval Value(int table, int attr) const override {
      return query::Interval::Single(domain->Value(table, attr));
    }
    const ExactDomain* domain;
  };

  const std::vector<std::vector<const data::Tuple*>>& per_table_;
  size_t* evaluated_;
  std::vector<std::vector<uint32_t>> candidates_;
  std::vector<const data::Tuple*> assignment_;
  std::map<std::pair<int, int>, std::vector<uint32_t>> indexes_;
  /// Largest finite |value| among the candidates and the join predicates'
  /// literals: the scale of the rounding errors Window absorbs.
  double magnitude_ = 0.0;
};

/// Running state of one aggregate SELECT item.
struct Accumulator {
  query::AggregateKind kind = query::AggregateKind::kNone;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  uint64_t count = 0;

  void Update(double v) {
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
  }

  double Finish() const {
    switch (kind) {
      case query::AggregateKind::kMin:
        return count ? min : std::numeric_limits<double>::quiet_NaN();
      case query::AggregateKind::kMax:
        return count ? max : std::numeric_limits<double>::quiet_NaN();
      case query::AggregateKind::kSum:
        return sum;
      case query::AggregateKind::kAvg:
        return count ? sum / static_cast<double>(count)
                     : std::numeric_limits<double>::quiet_NaN();
      case query::AggregateKind::kCount:
        return static_cast<double>(count);
      case query::AggregateKind::kNone:
        break;
    }
    SENSJOIN_CHECK(false) << "not an aggregate";
    return 0.0;
  }
};

}  // namespace

JoinResult ComputeExactJoin(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples) {
  const int num_tables = q.num_tables();

  JoinResult result;

  // Output columns, each resolved once: an attribute copy (table, attr), or
  // a scalar expression. Both give the double EvalScalar would.
  struct Column {
    int table = -1;
    int attr = -1;
    const query::Expr* expr = nullptr;
  };
  std::vector<Column> columns;
  if (q.select_star()) {
    for (int t = 0; t < num_tables; ++t) {
      for (int a = 0; a < q.schema().num_attributes(); ++a) {
        result.column_labels.push_back(q.table(t).alias + "." +
                                       q.schema().attribute(a).name);
        columns.push_back({.table = t, .attr = a});
      }
    }
  } else {
    for (const query::SelectItem& item : q.select()) {
      result.column_labels.push_back(item.label);
      if (q.has_aggregates()) continue;  // folded by the accumulators
      const query::Expr& e = *item.expr;
      if (e.kind == query::ExprKind::kAttrRef) {
        columns.push_back({.table = e.table_index, .attr = e.attr_index});
      } else {
        columns.push_back({.expr = &e});
      }
    }
  }
  result.rows = RowTable(result.column_labels.size());

  std::vector<Accumulator> accumulators;
  if (q.has_aggregates()) {
    accumulators.resize(q.select().size());
    for (size_t i = 0; i < q.select().size(); ++i) {
      accumulators[i].kind = q.select()[i].aggregate;
    }
  }

  ExactDomain domain(q, per_table_tuples, &result.combinations_evaluated);
  // used[t][row]: candidate `row` of table t is in some matching combination.
  std::vector<std::vector<char>> used;
  for (const auto& tuples : per_table_tuples) used.emplace_back(tuples.size());

  // Reused per match, so a row allocates nothing of its own.
  std::vector<double> row(columns.size());
  std::vector<sim::NodeId> nodes(num_tables);
  // The exact plan keeps FROM order, so rows[t] is table t's candidate.
  auto emit = [&](const std::vector<uint32_t>& rows) {
    ++result.matched_combinations;
    for (int t = 0; t < num_tables; ++t) used[t][rows[t]] = 1;
    if (q.has_aggregates()) {
      for (size_t i = 0; i < q.select().size(); ++i) {
        const query::SelectItem& item = q.select()[i];
        const double v = item.expr != nullptr
                             ? query::EvalScalar(*item.expr, domain)
                             : 1.0;  // COUNT(*)
        accumulators[i].Update(v);
      }
      return;
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      const Column& col = columns[c];
      row[c] = col.expr != nullptr ? query::EvalScalar(*col.expr, domain)
                                   : domain.Value(col.table, col.attr);
    }
    result.rows.Append(row);
    for (int t = 0; t < num_tables; ++t) {
      nodes[t] = per_table_tuples[t][rows[t]]->node;
    }
    std::sort(nodes.begin(), nodes.end());
    const auto last = std::unique(nodes.begin(), nodes.end());
    result.row_nodes.Append({nodes.begin(), last});
  };
  EnumerateJoin(JoinPlan::ForExact(q), domain, emit);

  if (q.has_aggregates()) {
    row.clear();
    for (const Accumulator& acc : accumulators) row.push_back(acc.Finish());
    result.rows.Append(row);
  }

  for (int t = 0; t < num_tables; ++t) {
    for (size_t r = 0; r < used[t].size(); ++r) {
      if (used[t][r]) {
        result.contributing_nodes.push_back(per_table_tuples[t][r]->node);
      }
    }
  }
  SortUnique(&result.contributing_nodes);
  return result;
}

bool SameExactJoin(const query::AnalyzedQuery& a,
                   const query::AnalyzedQuery& b) {
  auto same_preds = [](const auto& x, const auto& y) {
    return std::ranges::equal(x, y, [](const auto& p, const auto& r) {
      return query::SameExpr(*p, *r);
    });
  };
  auto same_items = [](const query::SelectItem& x,
                       const query::SelectItem& y) {
    return x.aggregate == y.aggregate && x.label == y.label &&
           (x.expr == nullptr
                ? y.expr == nullptr
                : y.expr != nullptr && query::SameExpr(*x.expr, *y.expr));
  };
  // SELECT * labels its columns with the schema's attribute names.
  auto same_star = [&] {
    return a.select_star() == b.select_star() &&
           (!a.select_star() ||
            std::ranges::equal(a.schema().attributes(),
                               b.schema().attributes(), {},
                               &data::AttributeDef::name,
                               &data::AttributeDef::name));
  };
  return std::ranges::equal(a.tables(), b.tables(), {},
                            &query::AnalyzedTable::alias,
                            &query::AnalyzedTable::alias) &&
         same_star() && a.has_aggregates() == b.has_aggregates() &&
         same_preds(a.join_predicates(), b.join_predicates()) &&
         std::ranges::equal(a.select(), b.select(), same_items);
}

std::vector<JoinResult> ComputeExactJoins(
    std::span<const query::AnalyzedQuery* const> members,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples) {
  // Result i is a copy of the result of the first member equal to member i;
  // copies share the row buffers (PodBuffer).
  std::vector<JoinResult> results;
  results.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    size_t first = 0;
    while (first < i && !SameExactJoin(*members[first], *members[i])) ++first;
    results.push_back(first < i
                          ? results[first]
                          : ComputeExactJoin(*members[i], per_table_tuples));
  }
  return results;
}

std::strong_ordering CompareRows(std::span<const double> a,
                                 std::span<const double> b) {
  return std::lexicographical_compare_three_way(
      a.begin(), a.end(), b.begin(), b.end(),
      [](double x, double y) { return std::strong_order(x, y); });
}

RowTable SortedRows(const RowTable& rows) {
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return CompareRows(rows[a], rows[b]) < 0;
  });
  RowTable sorted(rows.width());
  for (size_t i : order) sorted.Append(rows[i]);
  return sorted;
}

size_t CommonRows(const RowTable& a, const RowTable& b) {
  const RowTable sa = SortedRows(a);
  const RowTable sb = SortedRows(b);
  size_t common = 0;
  for (size_t i = 0, j = 0; i < sa.size() && j < sb.size();) {
    const std::strong_ordering c = CompareRows(sa[i], sb[j]);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      ++common;
      ++i;
      ++j;
    }
  }
  return common;
}

std::vector<char> JoinParticipants(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples,
    int table) {
  std::vector<char> participates(per_table_tuples[table].size(), 0);
  size_t evaluated = 0;
  ExactDomain domain(q, per_table_tuples, &evaluated);
  EnumerateJoin(JoinPlan::ForExact(q), domain,
                [&](const std::vector<uint32_t>& rows) {
                  participates[rows[table]] = 1;
                });
  return participates;
}

}  // namespace sensjoin::join
