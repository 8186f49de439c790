#include "sensjoin/join/alt_baselines.h"

#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/join/phases.h"
#include "sensjoin/join/result.h"
#include "sensjoin/net/flooding.h"
#include "sensjoin/obs/trace.h"

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

/// One semi-join attempt over `ladder`; false on a persistent failure.
bool SemiJoinAttempt(const data::NetworkData& data,
                     const query::AnalyzedQuery& q, uint64_t epoch,
                     FaultLadder& ladder, ExecutionReport* report) {
  sim::Simulator& sim = ladder.sim();
  const net::RoutingTree& tree = ladder.tree();
  const ExecutorContext ctx(data, q, epoch);
  const std::vector<int>& a_attrs = q.table(0).join_attr_indices;
  const int a_attr_bytes = q.JoinAttrTupleBytes(0);

  // ---- Phase 1: collect relation A's join-attribute tuples at the base.
  // Projections, not complete tuples: no per-node certificate covers a lost
  // or garbled key, so such a hop aborts the attempt instead of a rescue.
  std::vector<std::vector<const data::Tuple*>> pending(sim.num_nodes());
  std::vector<const data::Tuple*> a_values;
  for (sim::NodeId u : tree.collection_order()) {
    std::vector<const data::Tuple*> contribution = std::move(pending[u]);
    if (ctx.info(u).has_tuple && ctx.PassesTable(ctx.info(u).tuple, 0)) {
      contribution.push_back(&ctx.info(u).tuple);
    }
    if (u == tree.root()) {
      a_values = std::move(contribution);
      continue;
    }
    if (contribution.empty()) continue;
    sim::Message msg;
    msg.src = u;
    msg.dst = tree.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = contribution.size() * a_attr_bytes;
    bool corrupted = false;
    if (!ladder.Send(std::move(msg), &corrupted) || corrupted) return false;
    std::vector<const data::Tuple*>& up = pending[tree.parent(u)];
    up.insert(up.end(), contribution.begin(), contribution.end());
  }
  sim.events().Run();
  report->collected_points = a_values.size();

  // ---- Phase 2: broadcast A's join-attribute values over the network
  // (with arbitrary placements, relation B's nodes are everywhere).
  const std::vector<char> heard =
      net::Flood(sim, tree.root(), a_values.size() * a_attr_bytes,
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
  for (int u = 0; u < sim.num_nodes(); ++u) {
    const ExecutorContext::NodeInfo& info = ctx.info(u);
    if (info.has_tuple && ctx.PassesTable(info.tuple, 1)) {
      b_side.push_back(&info.tuple);
    }
  }
  const std::vector<char> partnered = JoinParticipants(q, {a_side, b_side}, 1);
  std::vector<char> b_has_partner(sim.num_nodes(), 0);
  for (size_t i = 0; i < b_side.size(); ++i) {
    b_has_partner[b_side[i]->node] = partnered[i];
  }
  // A B-only node the flood missed cannot test for a partner: it ships
  // nothing, and its tuple is certified lost.
  for (sim::NodeId u : tree.collection_order()) {
    const ExecutorContext::NodeInfo& info = ctx.info(u);
    if (heard[u] || !info.has_tuple || ctx.PassesTable(info.tuple, 0) ||
        !ctx.PassesTable(info.tuple, 1)) {
      continue;
    }
    b_has_partner[u] = 0;
    if (!ladder.Degrade(u, {u})) return false;
  }

  ladder.ArmWatchdog();
  std::vector<data::Tuple> base_candidates;
  if (!ConvergecastTuples(
          ladder, ctx, obs::Phase::kFinalResult,
          [&](sim::NodeId u, std::vector<data::Tuple>* out) {
            const ExecutorContext::NodeInfo& info = ctx.info(u);
            if (info.has_tuple &&
                (ctx.PassesTable(info.tuple, 0) || b_has_partner[u] != 0)) {
              out->push_back(info.tuple);
              ++report->final_tuples_shipped;
            }
          },
          report, &base_candidates)) {
    return false;
  }
  report->candidate_tuples = base_candidates.size();
  report->result =
      ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));
  return true;
}

/// One mediated-join attempt over `ladder`; false on a persistent failure.
/// Sets `*mediator_out` to the node it picks. Neither loop is a convergecast
/// of the ladder's tree (the collection runs on the mediator's tree, the
/// result walk is one path), so a lost or garbled hop aborts the attempt.
bool MediatedJoinAttempt(const data::NetworkData& data,
                         const query::AnalyzedQuery& q, uint64_t epoch,
                         FaultLadder& ladder, ExecutionReport* report,
                         sim::NodeId* mediator_out) {
  sim::Simulator& sim = ladder.sim();
  const net::RoutingTree& tree = ladder.tree();
  const ExecutorContext ctx(data, q, epoch);

  // ---- Pick the mediator: the participant nearest the centroid of the
  // contributing nodes (the "join location").
  std::vector<sim::NodeId> participants;
  double cx = 0, cy = 0;
  for (int u = 0; u < ctx.num_nodes(); ++u) {
    if (!ctx.info(u).has_tuple || !tree.InTree(u)) continue;
    cx += data.position(u).x;
    cy += data.position(u).y;
    participants.push_back(u);
  }
  if (participants.empty()) {
    report->result = ComputeExactJoin(q, ctx.PerTableCandidates({}));
    return true;
  }
  cx /= static_cast<double>(participants.size());
  cy /= static_cast<double>(participants.size());
  sim::NodeId mediator = sim::kInvalidNode;
  double best = std::numeric_limits<double>::max();
  for (sim::NodeId u : participants) {
    const double d = Distance(data.position(u), Point{cx, cy});
    if (d < best) {
      best = d;
      mediator = u;
    }
  }
  *mediator_out = mediator;

  // ---- Phase 1: route every participating tuple to the mediator along a
  // collection tree rooted there (operator-placement infrastructure costs
  // are accounted as kBeacon, like all routing maintenance). A participant
  // that tree misses (dead since the ladder's tree was built) fails the
  // attempt, so the rebuilt tree certifies it as excluded.
  const net::RoutingTree to_mediator = net::RoutingTree::Build(sim, mediator);
  for (sim::NodeId u : participants) {
    if (!to_mediator.InTree(u)) return false;
  }
  std::vector<std::vector<data::Tuple>> pending(sim.num_nodes());
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
    bool corrupted = false;
    if (!ladder.Send(std::move(msg), &corrupted) || corrupted) return false;
    std::vector<data::Tuple>& up = pending[to_mediator.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }
  sim.events().Run();
  report->candidate_tuples = at_mediator.size();

  // ---- The mediator computes the join ...
  report->result = ComputeExactJoin(q, ctx.PerTableCandidates(at_mediator));

  // ---- ... and ships the result rows to the base station hop by hop.
  const size_t result_bytes =
      report->result.rows.size() * static_cast<size_t>(ResultRowBytes(q));
  for (sim::NodeId hop = mediator; hop != tree.root();) {
    const sim::NodeId parent = tree.parent(hop);
    SENSJOIN_CHECK(parent != sim::kInvalidNode);
    sim::Message msg;
    msg.src = hop;
    msg.dst = parent;
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = result_bytes;
    bool corrupted = false;
    if (!ladder.Send(std::move(msg), &corrupted) || corrupted) return false;
    hop = parent;
  }
  return true;
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
  return RunAttempts(
      sim_, tree_, config_, /*recovery_budget=*/0,
      /*attempt_span=*/std::nullopt,
      "semi-join failed after retries (network partitioned?)",
      [&](FaultLadder& ladder, ExecutionReport* report) -> StatusOr<bool> {
        return SemiJoinAttempt(data_, q, epoch, ladder, report);
      });
}

MediatedJoinExecutor::MediatedJoinExecutor(sim::Simulator& sim,
                                           net::RoutingTree tree,
                                           const data::NetworkData& data,
                                           ProtocolConfig config)
    : sim_(sim), tree_(std::move(tree)), data_(data), config_(config) {}

StatusOr<ExecutionReport> MediatedJoinExecutor::Execute(
    const query::AnalyzedQuery& q, uint64_t epoch) {
  return RunAttempts(
      sim_, tree_, config_, /*recovery_budget=*/0,
      /*attempt_span=*/std::nullopt,
      "mediated join failed after retries (network partitioned?)",
      [&](FaultLadder& ladder, ExecutionReport* report) -> StatusOr<bool> {
        return MediatedJoinAttempt(data_, q, epoch, ladder, report,
                                   &last_mediator_);
      });
}

}  // namespace sensjoin::join
