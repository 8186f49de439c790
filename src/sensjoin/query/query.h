#ifndef SENSJOIN_QUERY_QUERY_H_
#define SENSJOIN_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/query/ast.h"

namespace sensjoin::query {

/// One FROM-list entry after analysis.
struct AnalyzedTable {
  std::string relation;
  std::string alias;

  /// Conjunction of the WHERE conjuncts referencing only this table, with
  /// attribute references resolved; null if there are none. Evaluated
  /// locally at each node (selections are pushed down; Sec. IV-A, Fig. 1
  /// line 9).
  std::unique_ptr<Expr> selection;

  /// Schema attribute indices referenced by join predicates through this
  /// table (sorted, unique). These form the join-attribute tuple
  /// (Definition 1).
  std::vector<int> join_attr_indices;

  /// Schema attribute indices this query ships from nodes of this table:
  /// attributes in the SELECT list plus the join attributes (sorted,
  /// unique). Selection-only attributes stay local.
  std::vector<int> queried_attr_indices;
};

/// A semantically analyzed join query: attribute references resolved against
/// the network schema, WHERE split into per-table selections and join
/// predicates, expressions validated. This is the form the executors run.
class AnalyzedQuery {
 public:
  /// Analyzes `parsed` against `schema` (the attribute schema shared by all
  /// sensor relations of the network; Sec. III "Declarative Queries").
  static StatusOr<AnalyzedQuery> Analyze(ParsedQuery parsed,
                                         const data::Schema& schema);

  /// Convenience: parse + analyze.
  static StatusOr<AnalyzedQuery> FromString(const std::string& sql,
                                            const data::Schema& schema);

  AnalyzedQuery(AnalyzedQuery&&) = default;
  AnalyzedQuery& operator=(AnalyzedQuery&&) = default;

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const AnalyzedTable& table(int i) const { return tables_[i]; }
  const std::vector<AnalyzedTable>& tables() const { return tables_; }

  /// WHERE conjuncts referencing two or more tables (the join conditions);
  /// resolved and validated.
  const std::vector<std::unique_ptr<Expr>>& join_predicates() const {
    return join_predicates_;
  }

  /// Resolved SELECT list (empty if select_star()).
  const std::vector<SelectItem>& select() const { return select_; }
  bool select_star() const { return select_star_; }
  bool has_aggregates() const { return has_aggregates_; }

  ParsedQuery::Mode mode() const { return mode_; }
  double sample_period_s() const { return sample_period_s_; }

  const data::Schema& schema() const { return schema_; }

  /// Wire size of the join-attribute tuple of table `i`.
  int JoinAttrTupleBytes(int i) const;
  /// Wire size of the attributes shipped for table `i` in the final phase.
  int QueriedTupleBytes(int i) const;

  /// Indices of the FROM entries whose relation is `relation_name`.
  std::vector<int> TablesOfRelation(const std::string& relation_name) const;

  /// Union of join-attribute indices over all FROM entries, sorted: the
  /// attributes a join-attribute tuple projects onto (Definition 1; for
  /// self-joins the aliases' attributes usually coincide and are sent once,
  /// Sec. IV-B).
  std::vector<int> JoinAttrIndices() const;

  /// Union of shipped attribute indices over all FROM entries of
  /// `relation_name`.
  std::vector<int> UnionQueriedAttrIndices(
      const std::string& relation_name) const;

  /// Distinct relation names in FROM order.
  std::vector<std::string> RelationNames() const;

  /// Approximate wire size of the query message for dissemination.
  size_t QueryWireBytes() const { return query_wire_bytes_; }

 private:
  AnalyzedQuery() = default;

  std::vector<AnalyzedTable> tables_;
  std::vector<std::unique_ptr<Expr>> join_predicates_;
  std::vector<SelectItem> select_;
  bool select_star_ = false;
  bool has_aggregates_ = false;
  ParsedQuery::Mode mode_ = ParsedQuery::Mode::kOnce;
  double sample_period_s_ = 0.0;
  data::Schema schema_;
  size_t query_wire_bytes_ = 0;
};

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_QUERY_H_
