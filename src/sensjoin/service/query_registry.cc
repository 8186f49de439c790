#include "sensjoin/service/query_registry.h"

#include <utility>

namespace sensjoin::service {

QueryRegistry::QueryRegistry(data::Schema schema, size_t max_queries)
    : schema_(std::move(schema)), max_queries_(max_queries) {}

StatusOr<QueryId> QueryRegistry::Register(const std::string& sql,
                                          uint64_t epoch) {
  if (active_count_ >= max_queries_) {
    return Status::ResourceExhausted("query admission limit reached");
  }
  SENSJOIN_ASSIGN_OR_RETURN(query::AnalyzedQuery q,
                            query::AnalyzedQuery::FromString(sql, schema_));
  if (q.num_tables() < 2) {
    return Status::InvalidArgument(
        "continuous join service requires at least two relations in FROM");
  }
  std::string signature = query::SharingSignatureOf(q);
  const QueryId id = next_id_++;
  records_.emplace(
      std::piecewise_construct, std::forward_as_tuple(id),
      std::forward_as_tuple(id, sql, std::move(q), std::move(signature),
                            epoch));
  ++active_count_;
  return id;
}

Status QueryRegistry::Cancel(QueryId id, uint64_t epoch) {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("unknown query id");
  }
  if (it->second.state == QueryState::kCancelled) {
    return Status::InvalidArgument("query already cancelled");
  }
  it->second.state = QueryState::kCancelled;
  it->second.cancelled_epoch = epoch;
  --active_count_;
  return Status::Ok();
}

StatusOr<const QueryRecord*> QueryRegistry::Get(QueryId id) const {
  const auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("unknown query id");
  }
  return &it->second;
}

QueryRecord* QueryRegistry::GetMutable(QueryId id) {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::vector<QueryId> QueryRegistry::ActiveIds() const {
  std::vector<QueryId> ids;
  ids.reserve(active_count_);
  for (const auto& [id, record] : records_) {
    if (record.state != QueryState::kCancelled) ids.push_back(id);
  }
  return ids;
}

}  // namespace sensjoin::service
