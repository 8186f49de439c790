#include "sensjoin/service/join_service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/result.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::service {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// `config` with self-healing off (no tree repair, watchdogs or
/// degradation): a repaired orphan would corrupt the delta state, a
/// degraded epoch is not exact.
ServiceConfig WithoutSelfHealing(ServiceConfig config) {
  config.protocol.self_healing = false;
  return config;
}

}  // namespace

JoinService::JoinService(sim::Simulator& sim, const data::NetworkData& data,
                         net::RoutingTree tree,
                         join::QuantizationConfig quantization,
                         ServiceConfig config)
    : sim_(sim),
      data_(data),
      tree_(std::move(tree)),
      quantization_(std::move(quantization)),
      config_(WithoutSelfHealing(config)),
      registry_(data.schema(), config.max_queries) {}

StatusOr<QueryId> JoinService::Register(const std::string& sql) {
  return registry_.Register(sql, next_epoch_);
}

Status JoinService::Cancel(QueryId id) {
  // Group membership is re-derived at the next RunEpoch; a group whose
  // last member left is dismantled there.
  return registry_.Cancel(id, next_epoch_);
}

std::string JoinService::GroupKeyOf(const QueryRecord& record) const {
  std::string key = record.signature;
  if (!config_.share_phases) {
    // Dedicated baseline: every query is its own group on the same
    // deployment, so shared-vs-dedicated cost attribution is apples to
    // apples.
    key += "|q=";
    key += std::to_string(record.id);
  }
  return key;
}

StatusOr<ServiceEpochReport> JoinService::RunEpoch() {
  const uint64_t epoch = next_epoch_;
  const std::vector<QueryId> active = registry_.ActiveIds();
  if (active.empty()) {
    return Status::FailedPrecondition("no active queries to execute");
  }
  obs::ScopedPhase span(sim_.tracer(), sim_.events(),
                        obs::Phase::kServiceEpoch);
  EpochAttempt staged;
  SENSJOIN_ASSIGN_OR_RETURN(
      const join::ExecutionReport run,
      join::RunAttempts(
          sim_, tree_, config_.protocol, join::kMaxRecoveryRequests,
          /*attempt_span=*/std::nullopt,
          "continuous service epoch failed after retries",
          [&](join::FaultLadder& ladder,
              join::ExecutionReport* attempt) -> StatusOr<bool> {
            staged = EpochAttempt{};
            SENSJOIN_ASSIGN_OR_RETURN(
                const bool ok,
                RunEpochAttempt(epoch, active, ladder, attempt, &staged));
            if (!ok) {
              // Every group's distributed state indexes the tree the driver
              // is about to rebuild: the retry bootstraps from scratch.
              // Partial results of the aborted attempt are never delivered.
              for (auto& [key, group] : groups_) {
                group.engine->Reset();
                for (auto& [id, filter] : group.filters) filter.Reset();
              }
            }
            return ok;
          }));

  // The whole epoch succeeded: deliver the staged per-query reports with
  // what the driver measured over the epoch.
  staged.report.cost = run.cost;
  staged.report.tree_rebuilds = static_cast<size_t>(run.attempts - 1);
  for (auto& [id, er] : staged.reports) {
    er.attempts = run.attempts;
    er.certificate = run.certificate;
    er.duplicate_deliveries = run.duplicate_deliveries;
    er.stale_messages_dropped = run.stale_messages_dropped;
    er.reordered_messages = run.reordered_messages;
    er.response_time_s = run.response_time_s;
    registry_.GetMutable(id)->reports.push_back(std::move(er));
  }
  last_group_reports_ = std::move(staged.groups);
  ++next_epoch_;
  return std::move(staged.report);
}

StatusOr<bool> JoinService::RunEpochAttempt(uint64_t epoch,
                                           const std::vector<QueryId>& active,
                                           join::FaultLadder& ladder,
                                           join::ExecutionReport* attempt,
                                           EpochAttempt* out) {
  ServiceEpochReport* report = &out->report;
  report->epoch = epoch;
  report->active_queries = active.size();
  // Re-derive the grouping from the active set (admissions and
  // cancellations since the last epoch take effect here). `active` is
  // ascending, so each group's first member is its representative (lowest
  // QueryId).
  std::map<std::string, std::vector<QueryRecord*>> members_by_key;
  for (QueryId id : active) {
    QueryRecord* record = registry_.GetMutable(id);
    SENSJOIN_CHECK(record != nullptr);
    record->state = QueryState::kRunning;
    members_by_key[GroupKeyOf(*record)].push_back(record);
  }
  for (auto it = groups_.begin(); it != groups_.end();) {
    it = members_by_key.count(it->first) != 0 ? std::next(it)
                                              : groups_.erase(it);
  }
  report->groups = members_by_key.size();
  report->sharing_factor = static_cast<double>(active.size()) /
                           static_cast<double>(members_by_key.size());

  for (auto& [key, members] : members_by_key) {
    const QueryRecord* representative = members.front();
    Group& group = groups_[key];
    if (group.engine == nullptr) {
      group.engine = std::make_unique<join::DeltaGroupExecutor>(
          sim_, data_, quantization_, config_.protocol);
    }
    // Station-side caches of departed members die with their membership.
    for (auto it = group.filters.begin(); it != group.filters.end();) {
      const QueryId id = it->first;
      const bool still_member =
          std::any_of(members.begin(), members.end(),
                      [id](const QueryRecord* m) { return m->id == id; });
      it = still_member ? std::next(it) : group.filters.erase(it);
    }

    const join::StatsSnapshot before(sim_);
    const size_t recoveries_before = attempt->recovery_requests;
    const size_t shipped_before = attempt->final_tuples_shipped;

    join::DeltaGroupExecutor::CollectOutcome collected;
    SENSJOIN_ASSIGN_OR_RETURN(
        const bool ok, group.engine->Collect(ladder, tree_,
                                             representative->query, epoch,
                                             &collected));
    if (!ok) return false;

    // Base-station computation: per-member incremental filters, then the
    // group filter as their union (conservative for every member).
    const auto cpu_start = std::chrono::steady_clock::now();
    const join::PointSet collected_set = group.engine->CollectedSet();
    join::PointSet union_filter = group.engine->codec()->EmptySet();
    std::vector<uint64_t> scratch;
    for (QueryRecord* m : members) {
      join::IncrementalJoinFilter& filter = group.filters[m->id];
      const size_t reuses = filter.reuses();
      const size_t increments = filter.incremental_updates();
      const size_t recomputes = filter.full_recomputes();
      const join::FilterJoinResult& result =
          filter.Update(m->query, *group.engine->codec(), collected_set,
                        collected.added, collected.removed);
      report->filter_reuses += filter.reuses() - reuses;
      report->filter_incremental_updates +=
          filter.incremental_updates() - increments;
      report->filter_full_recomputes += filter.full_recomputes() - recomputes;
      union_filter.UnionInPlace(result.filter, &scratch);
    }
    report->station_cpu_s += SecondsSince(cpu_start);

    std::vector<data::Tuple> candidates;
    if (!group.engine->RunFinalPhases(ladder, union_filter, attempt,
                                      &candidates)) {
      return false;
    }
    const join::CostReport group_cost = before.DeltaTo(sim_);
    const size_t resyncs = attempt->recovery_requests - recoveries_before;
    const size_t shipped = attempt->final_tuples_shipped - shipped_before;

    // Per-member exact joins over the group's candidate pool: each member
    // applies its own predicates and projection, discarding the other
    // members' false positives, and identical members share one result.
    // Members agree on FROM relations and selections by signature, so the
    // pool is split per table once, by the group's epoch context.
    const auto join_start = std::chrono::steady_clock::now();
    const std::vector<std::vector<const data::Tuple*>> per_table =
        group.engine->context()->PerTableCandidates(candidates);
    std::vector<const query::AnalyzedQuery*> queries;
    for (const QueryRecord* m : members) queries.push_back(&m->query);
    std::vector<join::JoinResult> results =
        join::ComputeExactJoins(queries, per_table);
    for (size_t i = 0; i < members.size(); ++i) {
      const QueryRecord* m = members[i];
      join::ExecutionReport er;
      er.success = true;
      er.shared_group_size = members.size();
      er.cost = group_cost;
      er.total_cost = group_cost;
      er.collected_points = collected_set.size();
      er.filter_points = group.filters[m->id].last().filter.size();
      er.delta_changed_nodes = collected.changed_nodes;
      er.delta_resyncs = resyncs;
      er.final_tuples_shipped = shipped;
      er.candidate_tuples = candidates.size();
      er.result = std::move(results[i]);
      report->matched_rows += er.result.rows.size();
      out->reports.emplace(m->id, std::move(er));
    }
    report->station_cpu_s += SecondsSince(join_start);

    if (collected.bootstrap) ++report->bootstraps;
    report->delta_resyncs += resyncs;
    report->changed_nodes += collected.changed_nodes;

    out->groups.push_back(
        GroupEpochReport{key, members.size(), collected.bootstrap, group_cost});
  }
  return true;
}

}  // namespace sensjoin::service
