#ifndef SENSJOIN_JOIN_RESULT_H_
#define SENSJOIN_JOIN_RESULT_H_

#include <string>
#include <vector>

#include "sensjoin/data/tuple.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::join {

/// The query answer computed at the base station. For aggregate queries
/// there is a single row; otherwise one row per matching tuple combination.
struct JoinResult {
  std::vector<std::string> column_labels;
  std::vector<std::vector<double>> rows;

  /// Number of tuple combinations satisfying all predicates.
  size_t matched_combinations = 0;
  /// Join-predicate evaluations over (partial) tuple combinations.
  size_t combinations_evaluated = 0;

  /// Distinct nodes contributing a tuple to some matching combination
  /// (sorted). |contributing_nodes| / network size is the paper's "fraction
  /// of nodes in the result" parameter.
  std::vector<sim::NodeId> contributing_nodes;

  /// Per-row contributor sets: row_nodes[i] holds the distinct (sorted)
  /// nodes whose tuples formed rows[i]. Empty for aggregate queries (one
  /// synthetic row). This is what lets a completeness certificate be
  /// checked against the result exactly: a degraded execution must contain
  /// precisely the truth rows with no excluded contributor.
  std::vector<std::vector<sim::NodeId>> row_nodes;
};

/// Computes the exact join over full-precision tuples, applying the
/// query's join predicates, SELECT list and aggregates. `per_table_tuples`
/// holds, for each FROM entry, the candidate tuples of that table's
/// relation (full schema width; selections are assumed already applied).
/// Borrowed pointers must outlive the call. Rows and aggregate folds follow
/// nested-loop order over the FROM list; the enumeration probes sorted value
/// indexes where the predicates allow (JoinPlan::ForExact, join_plan.h).
JoinResult ComputeExactJoin(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples);

/// Flags the candidates of FROM entry `table` (per_table_tuples[table], in
/// list order) that take part in at least one combination satisfying every
/// join predicate — the semi-join's partner test.
std::vector<char> JoinParticipants(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples,
    int table);

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_RESULT_H_
