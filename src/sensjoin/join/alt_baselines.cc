#include "sensjoin/join/alt_baselines.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/result.h"
#include "sensjoin/join/stats.h"
#include "sensjoin/net/flooding.h"

namespace sensjoin::join {
namespace {

/// Wire size of one result row: two bytes per output column (matching the
/// per-attribute assumption used everywhere else).
int ResultRowBytes(const query::AnalyzedQuery& q) {
  if (q.select_star()) {
    return 2 * q.num_tables() * q.schema().num_attributes();
  }
  return 2 * static_cast<int>(q.select().size());
}

}  // namespace

SemiJoinExecutor::SemiJoinExecutor(sim::Simulator& sim, net::RoutingTree tree,
                                   const data::NetworkData& data,
                                   ProtocolConfig config)
    : sim_(sim), tree_(std::move(tree)), data_(data), config_(config) {}

StatusOr<ExecutionReport> SemiJoinExecutor::Execute(
    const query::AnalyzedQuery& q, uint64_t epoch) {
  if (q.num_tables() != 2) {
    return Status::Unimplemented(
        "the semi-join baseline supports exactly two relations");
  }
  const ExecutorContext ctx(data_, q, epoch);
  ExecutionReport report;
  const StatsSnapshot snapshot(sim_);
  const double start_time = sim_.now();

  const std::vector<int>& a_attrs = q.table(0).join_attr_indices;
  const int a_attr_bytes = q.JoinAttrTupleBytes(0);

  // ---- Phase 1: collect relation A's join-attribute tuples at the base.
  std::vector<std::vector<const data::Tuple*>> pending(sim_.num_nodes());
  std::vector<const data::Tuple*> a_values;
  for (sim::NodeId u : tree_.collection_order()) {
    std::vector<const data::Tuple*> contribution = std::move(pending[u]);
    if (ctx.info(u).has_tuple && ctx.PassesTable(ctx.info(u).tuple, 0)) {
      contribution.push_back(&ctx.info(u).tuple);
    }
    if (u == tree_.root()) {
      a_values = std::move(contribution);
      continue;
    }
    if (contribution.empty()) continue;
    sim::Message msg;
    msg.src = u;
    msg.dst = tree_.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = contribution.size() * a_attr_bytes;
    if (!sim_.SendUnicast(std::move(msg))) {
      return Status::ResourceExhausted("semi-join: link failure");
    }
    std::vector<const data::Tuple*>& up = pending[tree_.parent(u)];
    up.insert(up.end(), contribution.begin(), contribution.end());
  }
  sim_.events().Run();
  report.collected_points = a_values.size();

  // ---- Phase 2: broadcast A's join-attribute values over the network
  // (with arbitrary placements, relation B's nodes are everywhere).
  net::FloodPayload(sim_, tree_.root(), a_values.size() * a_attr_bytes,
                    sim::MessageKind::kFilter);

  // ---- Phase 3: B nodes with a partner ship complete tuples; A nodes
  // ship theirs unconditionally (the base needs them to build the result).
  // A-side stand-in tuples carry only the join attributes.
  std::vector<data::Tuple> a_projections;
  a_projections.reserve(a_values.size());
  for (const data::Tuple* a : a_values) {
    data::Tuple proj;
    proj.node = a->node;
    proj.values.assign(q.schema().num_attributes(), 0.0);
    for (int idx : a_attrs) proj.values[idx] = a->values[idx];
    a_projections.push_back(std::move(proj));
  }
  // One join over {A projections, B candidates} marks every B node with a
  // partner.
  std::vector<const data::Tuple*> a_side;
  std::vector<const data::Tuple*> b_side;
  for (const data::Tuple& a : a_projections) a_side.push_back(&a);
  for (int u = 0; u < sim_.num_nodes(); ++u) {
    const ExecutorContext::NodeInfo& info = ctx.info(u);
    if (info.has_tuple && ctx.PassesTable(info.tuple, 1)) {
      b_side.push_back(&info.tuple);
    }
  }
  const std::vector<char> partnered = JoinParticipants(q, {a_side, b_side}, 1);
  std::vector<char> b_has_partner(sim_.num_nodes(), 0);
  for (size_t i = 0; i < b_side.size(); ++i) {
    b_has_partner[b_side[i]->node] = partnered[i];
  }

  std::vector<std::vector<data::Tuple>> pending_full(sim_.num_nodes());
  std::vector<data::Tuple> base_candidates;
  for (sim::NodeId u : tree_.collection_order()) {
    std::vector<data::Tuple> contribution = std::move(pending_full[u]);
    const ExecutorContext::NodeInfo& info = ctx.info(u);
    if (info.has_tuple) {
      const bool as_a = ctx.PassesTable(info.tuple, 0);
      const bool as_b = b_has_partner[u] != 0;
      if (as_a || as_b) {
        contribution.push_back(info.tuple);
        ++report.final_tuples_shipped;
      }
    }
    if (u == tree_.root()) {
      base_candidates = std::move(contribution);
      continue;
    }
    if (contribution.empty()) continue;
    size_t payload = 0;
    for (const data::Tuple& t : contribution) {
      payload += ctx.info(t.node).full_tuple_bytes;
    }
    sim::Message msg;
    msg.src = u;
    msg.dst = tree_.parent(u);
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = payload;
    if (!sim_.SendUnicast(std::move(msg))) {
      return Status::ResourceExhausted("semi-join: link failure");
    }
    std::vector<data::Tuple>& up = pending_full[tree_.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }
  sim_.events().Run();

  report.candidate_tuples = base_candidates.size();
  report.result = ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));
  report.success = true;
  report.cost = snapshot.DeltaTo(sim_);
  report.response_time_s = sim_.now() - start_time;
  return report;
}

MediatedJoinExecutor::MediatedJoinExecutor(sim::Simulator& sim,
                                           net::RoutingTree tree,
                                           const data::NetworkData& data,
                                           ProtocolConfig config)
    : sim_(sim), tree_(std::move(tree)), data_(data), config_(config) {}

StatusOr<ExecutionReport> MediatedJoinExecutor::Execute(
    const query::AnalyzedQuery& q, uint64_t epoch) {
  const ExecutorContext ctx(data_, q, epoch);
  ExecutionReport report;
  const StatsSnapshot snapshot(sim_);
  const double start_time = sim_.now();

  // ---- Pick the mediator: the participant nearest the centroid of the
  // contributing nodes (the "join location").
  double cx = 0, cy = 0;
  int participants = 0;
  for (int u = 0; u < ctx.num_nodes(); ++u) {
    if (!ctx.info(u).has_tuple || !tree_.InTree(u)) continue;
    cx += data_.position(u).x;
    cy += data_.position(u).y;
    ++participants;
  }
  if (participants == 0) {
    report.success = true;
    report.result = ComputeExactJoin(q, ctx.PerTableCandidates({}));
    report.cost = snapshot.DeltaTo(sim_);
    return report;
  }
  cx /= participants;
  cy /= participants;
  sim::NodeId mediator = sim::kInvalidNode;
  double best = std::numeric_limits<double>::max();
  for (int u = 0; u < ctx.num_nodes(); ++u) {
    if (!ctx.info(u).has_tuple || !tree_.InTree(u)) continue;
    const double d = Distance(data_.position(u), Point{cx, cy});
    if (d < best) {
      best = d;
      mediator = u;
    }
  }
  last_mediator_ = mediator;

  // ---- Phase 1: route every participating tuple to the mediator along a
  // collection tree rooted there (operator-placement infrastructure costs
  // are accounted as kBeacon, like all routing maintenance).
  const net::RoutingTree to_mediator = net::RoutingTree::Build(sim_, mediator);
  std::vector<std::vector<data::Tuple>> pending(sim_.num_nodes());
  std::vector<data::Tuple> at_mediator;
  for (sim::NodeId u : to_mediator.collection_order()) {
    std::vector<data::Tuple> contribution = std::move(pending[u]);
    if (ctx.info(u).has_tuple) contribution.push_back(ctx.info(u).tuple);
    if (u == mediator) {
      at_mediator = std::move(contribution);
      continue;
    }
    if (contribution.empty()) continue;
    size_t payload = 0;
    for (const data::Tuple& t : contribution) {
      payload += ctx.info(t.node).full_tuple_bytes;
    }
    sim::Message msg;
    msg.src = u;
    msg.dst = to_mediator.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = payload;
    if (!sim_.SendUnicast(std::move(msg))) {
      return Status::ResourceExhausted("mediated join: link failure");
    }
    std::vector<data::Tuple>& up = pending[to_mediator.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }
  sim_.events().Run();
  report.candidate_tuples = at_mediator.size();

  // ---- The mediator computes the join ...
  report.result = ComputeExactJoin(q, ctx.PerTableCandidates(at_mediator));

  // ---- ... and ships the result rows to the base station hop by hop.
  const size_t result_bytes =
      report.result.rows.size() * static_cast<size_t>(ResultRowBytes(q));
  sim::NodeId hop = mediator;
  while (hop != tree_.root()) {
    const sim::NodeId parent = tree_.parent(hop);
    SENSJOIN_CHECK(parent != sim::kInvalidNode);
    sim::Message msg;
    msg.src = hop;
    msg.dst = parent;
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = result_bytes;
    if (!sim_.SendUnicast(std::move(msg))) {
      return Status::ResourceExhausted("mediated join: link failure");
    }
    hop = parent;
  }
  sim_.events().Run();

  report.success = true;
  report.cost = snapshot.DeltaTo(sim_);
  report.response_time_s = sim_.now() - start_time;
  return report;
}

}  // namespace sensjoin::join
