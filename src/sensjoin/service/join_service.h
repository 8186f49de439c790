#ifndef SENSJOIN_SERVICE_JOIN_SERVICE_H_
#define SENSJOIN_SERVICE_JOIN_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/join/continuous.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/join/stats.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/query/query.h"
#include "sensjoin/service/query_registry.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::service {

/// Service-level configuration.
struct ServiceConfig {
  /// Protocol knobs of every query and group. Tree repair, phase
  /// watchdogs and graceful degradation are forced off (see JoinService);
  /// the delta executor has no Treecut, so use_treecut and dmax_bytes are
  /// ignored.
  join::ProtocolConfig protocol;

  /// Multi-query optimization: group queries whose sharing signatures
  /// agree, so one collection + one dissemination + one final phase serves
  /// the whole group. false = every query runs its own phases (the
  /// dedicated baseline on the same deployment, for cost attribution).
  bool share_phases = true;

  /// Admission cap (QueryRegistry).
  size_t max_queries = 256;
};

/// Per-group slice of one epoch's execution (cost attribution: shared vs
/// dedicated).
struct GroupEpochReport {
  std::string group_key;
  size_t members = 0;  ///< active queries served by this group's phases
  bool bootstrap = false;  ///< group ran a full collection this epoch
  join::CostReport cost;   ///< network cost of the group's shared phases
};

/// One epoch of the whole service.
struct ServiceEpochReport {
  uint64_t epoch = 0;
  size_t active_queries = 0;
  size_t groups = 0;
  /// Queries served per network phase set: active_queries / groups (1.0 =
  /// no sharing). The headline multi-query amortization metric.
  double sharing_factor = 1.0;

  /// Network cost of the epoch over all groups.
  join::CostReport cost;
  /// Host CPU spent in base-station computation this epoch (filter
  /// maintenance + union + exact joins), excluding the simulated network.
  double station_cpu_s = 0.0;

  size_t bootstraps = 0;     ///< groups that ran a full collection
  size_t tree_rebuilds = 0;  ///< topology repairs forced by failures
  size_t delta_resyncs = 0;  ///< lost hops re-pulled (all groups)
  size_t changed_nodes = 0;  ///< nodes whose key moved (all groups)

  /// Filter-maintenance paths taken across member queries this epoch.
  size_t filter_reuses = 0;
  size_t filter_incremental_updates = 0;
  size_t filter_full_recomputes = 0;

  size_t matched_rows = 0;  ///< exact result rows over all member queries
};

/// Continuous multi-query join service at the base station: admission via
/// QueryRegistry, an epoch scheduler driving delta-based continuous
/// execution (DeltaGroupExecutor), incremental per-query join-filter
/// maintenance, and shared-phase execution for queries with equal sharing
/// signatures.
///
/// Sharing model: group members agree on relations, selections and join
/// attributes (query/signature.h), so every node reports the identical
/// quantized key stream for all of them — one in-network collection serves
/// the group. Members differ freely in join predicates and SELECT lists:
/// each keeps its own incrementally-maintained join filter; the group
/// disseminates the UNION of the member filters (conservative, so no
/// member loses a true result row) and each member's exact join runs over
/// the group's candidate pool with its own predicates and projection.
/// Wire sizes of complete tuples use the group representative's projection
/// (lowest active QueryId) — a documented approximation; the union of the
/// members' shipped attributes would be the hardware-faithful refinement.
///
/// Fault model: each epoch runs on join::RunAttempts, the one-shot
/// executors' attempt driver, with only the ladder's first rung: a lost
/// hop or missed filter broadcast is re-pulled in place (delta_resyncs). A
/// persistent failure or an undetected-corrupt hop fails the attempt;
/// every group is reset (its state indexes the old tree), the driver
/// rebuilds the tree, and the epoch re-runs with bootstrap collections. A
/// stale filter is therefore impossible: every filter is computed from a
/// multiset that applied the epoch's full delta or was rebuilt from
/// scratch.
class JoinService {
 public:
  /// References must outlive the service. `tree` is the initial routing
  /// tree (the service rebuilds its own copy after failures).
  JoinService(sim::Simulator& sim, const data::NetworkData& data,
              net::RoutingTree tree, join::QuantizationConfig quantization,
              ServiceConfig config = ServiceConfig{});

  /// Admits a continuous query; it runs with ServiceConfig::protocol and
  /// joins execution at the next RunEpoch.
  StatusOr<QueryId> Register(const std::string& sql);

  /// Cancels an active query; its group keeps running if other members
  /// remain, and is dismantled otherwise.
  Status Cancel(QueryId id);

  /// Executes one epoch for every active query (epochs self-number from 0).
  /// Per-query ExecutionReports are appended to the registry records;
  /// returns the service-level rollup. Fails only when retries are
  /// exhausted or no query is active.
  StatusOr<ServiceEpochReport> RunEpoch();

  /// Per-group attribution of the last successful epoch.
  const std::vector<GroupEpochReport>& last_group_reports() const {
    return last_group_reports_;
  }

  const QueryRegistry& registry() const { return registry_; }
  QueryRegistry& registry() { return registry_; }
  const net::RoutingTree& tree() const { return tree_; }
  const ServiceConfig& config() const { return config_; }

 private:
  /// One sharing group's runtime state. The engine holds the in-network
  /// distributed state (it survives membership churn); the filters are
  /// per-member station-side caches.
  struct Group {
    std::unique_ptr<join::DeltaGroupExecutor> engine;
    std::map<QueryId, join::IncrementalJoinFilter> filters;
  };

  /// Group key of a query record: its sharing signature, + the query id
  /// itself when sharing is disabled.
  std::string GroupKeyOf(const QueryRecord& record) const;

  /// What one successful epoch attempt stages for delivery.
  struct EpochAttempt {
    ServiceEpochReport report;
    std::vector<GroupEpochReport> groups;
    std::map<QueryId, join::ExecutionReport> reports;  ///< per member
  };

  /// Executes the epoch's groups once through `ladder`; false + intact
  /// Status when a failure needs a tree rebuild and a retry.
  StatusOr<bool> RunEpochAttempt(uint64_t epoch,
                                 const std::vector<QueryId>& active,
                                 join::FaultLadder& ladder,
                                 join::ExecutionReport* attempt,
                                 EpochAttempt* out);

  sim::Simulator& sim_;
  const data::NetworkData& data_;
  net::RoutingTree tree_;
  join::QuantizationConfig quantization_;
  ServiceConfig config_;  ///< as given, repair and degradation forced off
  QueryRegistry registry_;
  uint64_t next_epoch_ = 0;

  /// Live groups keyed by group key; iteration order (lexicographic) is the
  /// deterministic phase order within an epoch.
  std::map<std::string, Group> groups_;
  std::vector<GroupEpochReport> last_group_reports_;
};

}  // namespace sensjoin::service

#endif  // SENSJOIN_SERVICE_JOIN_SERVICE_H_
