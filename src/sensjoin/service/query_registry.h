#ifndef SENSJOIN_SERVICE_QUERY_REGISTRY_H_
#define SENSJOIN_SERVICE_QUERY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/query/query.h"
#include "sensjoin/query/signature.h"

namespace sensjoin::service {

/// Handle of a registered continuous query, unique for the lifetime of the
/// registry (never reused, monotonically assigned from 1).
using QueryId = uint64_t;

/// Lifecycle of a registered query. Admitted queries join the next epoch's
/// execution (their first epoch is a base-station-side bootstrap of the
/// filter; the network-side collection is shared with their group and needs
/// no extra bootstrap traffic unless the group is new). Cancelled queries
/// keep their report stream but leave the execution set immediately.
enum class QueryState { kAdmitted, kRunning, kCancelled };

/// One registered query: the analyzed form the executors run, its sharing
/// signature, and the per-epoch report stream.
struct QueryRecord {
  QueryId id = 0;
  std::string sql;
  query::AnalyzedQuery query;
  /// Collection-sharing signature (query/signature.h); queries with equal
  /// signatures share phases.
  std::string signature;
  QueryState state = QueryState::kAdmitted;
  /// Service epoch at which the query was admitted / cancelled.
  uint64_t admitted_epoch = 0;
  uint64_t cancelled_epoch = 0;
  /// Per-epoch execution reports, in epoch order (the query's result
  /// stream). `cost` entries are the *shared group* cost, with
  /// shared_group_size recording how many queries split it.
  std::vector<join::ExecutionReport> reports;

  QueryRecord(QueryId id_in, std::string sql_in, query::AnalyzedQuery q,
              std::string signature_in, uint64_t admitted_epoch_in)
      : id(id_in),
        sql(std::move(sql_in)),
        query(std::move(q)),
        signature(std::move(signature_in)),
        admitted_epoch(admitted_epoch_in) {}
};

/// Admission layer of the continuous join service: owns the registered
/// queries and their lifecycle. Hardened against arbitrary input — every
/// failure path is a Status (malformed SQL, non-join queries, capacity,
/// unknown ids); nothing aborts the process.
class QueryRegistry {
 public:
  /// `schema` is the deployment's attribute schema queries are analyzed
  /// against (copied). `max_queries` bounds concurrently active queries.
  explicit QueryRegistry(data::Schema schema, size_t max_queries = 256);

  /// Parses, analyzes and admits `sql`. Rejects malformed SQL, queries with
  /// fewer than two FROM entries (nothing to join) and admission past the
  /// capacity limit. `epoch` stamps the record's admission time.
  StatusOr<QueryId> Register(const std::string& sql, uint64_t epoch);

  /// Cancels an active query (keeps its record and report stream).
  Status Cancel(QueryId id, uint64_t epoch);

  /// Record lookup (registered ids only; cancelled queries remain
  /// retrievable).
  StatusOr<const QueryRecord*> Get(QueryId id) const;
  QueryRecord* GetMutable(QueryId id);

  /// Ids of non-cancelled queries, ascending.
  std::vector<QueryId> ActiveIds() const;
  size_t active_count() const { return active_count_; }

 private:
  data::Schema schema_;
  size_t max_queries_;
  QueryId next_id_ = 1;
  size_t active_count_ = 0;
  /// Node-based map: QueryRecord addresses stay stable across admissions
  /// (AnalyzedQuery is move-only and executors hold references into it).
  std::map<QueryId, QueryRecord> records_;
};

}  // namespace sensjoin::service

#endif  // SENSJOIN_SERVICE_QUERY_REGISTRY_H_
