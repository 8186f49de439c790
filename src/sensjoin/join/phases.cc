#include "sensjoin/join/phases.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/join/representation.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::join {

void PhaseView::EncodeKeys(const std::vector<int>& dims) {
  std::vector<double> dim_values(dims.size());
  for (sim::NodeId u = 0; u < sim.num_nodes(); ++u) {
    const ExecutorContext::NodeInfo& info = ctx.info(u);
    if (!info.has_tuple) continue;
    for (size_t d = 0; d < dims.size(); ++d) {
      dim_values[d] = info.tuple.values[dims[d]];
    }
    key[u] = codec.EncodeTuple(dim_values, info.membership);
  }
}

void PhaseView::VerifyWire(const PointSet& set) {
  if (!config.verify_wire_roundtrip ||
      config.representation != JoinAttrRepresentation::kQuadtree) {
    return;
  }
  set.EncodeTo(&wire_scratch);
  auto decoded = PointSet::Decode(codec.layout(), wire_scratch);
  SENSJOIN_CHECK(decoded.ok()) << decoded.status();
  SENSJOIN_CHECK(*decoded == set) << "wire roundtrip mismatch";
}

StatusOr<PointSet> PhaseView::ReceiveDamaged(const PointSet& sent,
                                             ExecutionReport* report) {
  ++report->corrupted_deliveries;
  if (config.representation != JoinAttrRepresentation::kQuadtree) {
    return Status::InvalidArgument("no wire model for representation");
  }
  return PointSet::Decode(codec.layout(), sim.DamagePayload(sent.Encode()));
}

bool DisseminateFilter(PhaseView& view, FaultLadder& ladder,
                       const PointSet& root_filter, ExecutionReport* report) {
  sim::Simulator& sim = view.sim;
  const net::RoutingTree& tree = view.tree;
  const obs::ScopedPhase span(sim.tracer(), sim.events(),
                              obs::Phase::kFilterDissemination);
  ladder.ArmWatchdog();
  view.filter[tree.root()] = root_filter;
  for (sim::NodeId u : tree.dissemination_order()) {
    if (view.exited[u] || !view.filter[u].has_value()) continue;

    std::vector<sim::NodeId> targets;
    for (sim::NodeId c : tree.children(u)) {
      if (view.sent_attrs[c]) targets.push_back(c);
    }
    if (targets.empty()) continue;

    const PointSet* prune = view.prune_set(u);
    PointSet forward = prune != nullptr
                           ? PointSet::Intersect(*view.filter[u], *prune)
                           : *view.filter[u];  // cannot prune
    if (forward.empty()) continue;  // subtree holds no result tuples
    view.VerifyWire(forward);

    sim::Message msg;
    msg.src = u;
    msg.kind = sim::MessageKind::kFilter;
    msg.payload_bytes =
        StructureWireBytes(forward, view.codec, view.config.representation);
    std::vector<sim::NodeId> reached;
    std::vector<sim::NodeId> corrupted_rx;
    sim.Broadcast(msg, &reached, &corrupted_rx);
    for (sim::NodeId c : targets) {
      std::optional<PointSet>& child_filter = view.filter[c];
      if (std::find(reached.begin(), reached.end(), c) != reached.end()) {
        if (std::find(corrupted_rx.begin(), corrupted_rx.end(), c) ==
            corrupted_rx.end()) {
          child_filter = forward;
        } else if (auto damaged = view.ReceiveDamaged(forward, report);
                   damaged.ok()) {
          child_filter = std::move(*damaged);
        }
        // An unparseable filter is as good as a missed broadcast: the
        // unicast resend below applies.
      }
      if (!child_filter.has_value()) {
        if (ladder.WatchdogExpired(obs::Phase::kFilterDissemination)) {
          ladder.Degrade(c, tree.SubtreeNodes(c));
          continue;
        }
        // Detected subtree loss: the child missed the filter broadcast.
        // Unicast it the pruned filter kept for exactly this purpose by
        // Selective Filter Forwarding, instead of restarting the query.
        sim::Message resend;
        resend.src = u;
        resend.dst = c;
        resend.kind = sim::MessageKind::kFilter;
        resend.payload_bytes = msg.payload_bytes;
        bool corrupted = false;
        if (!ladder.Send(resend, &corrupted)) {
          // The filter cannot reach c: its subtree ships nothing in the
          // final phase, so certify the whole branch as excluded.
          if (ladder.Degrade(c, tree.SubtreeNodes(c))) continue;
          return false;
        }
        if (!corrupted) {
          child_filter = forward;
        } else if (auto damaged = view.ReceiveDamaged(forward, report);
                   damaged.ok()) {
          child_filter = std::move(*damaged);
        }
        // A resend that arrives garbled and unparseable leaves the child
        // without a filter: its subtree ships nothing in phase 2.
      }
    }
  }
  sim.events().Run();
  sim.events().ShrinkToFit();
  return true;
}

bool ConvergecastTuples(FaultLadder& ladder, const ExecutorContext& ctx,
                        obs::Phase phase, const TupleSelection& select,
                        ExecutionReport* report,
                        std::vector<data::Tuple>* at_root,
                        const FaultLadder::ParentAcceptable& parent_ok) {
  const net::RoutingTree& tree = ladder.tree();
  const sim::NodeId root = tree.root();
  std::vector<std::vector<data::Tuple>> pending(ladder.sim().num_nodes());
  // Collection-turn flags: rescued contributions are relayed through nodes
  // whose turn has passed.
  std::vector<char> done(pending.size(), 0);

  // Repairs mutate the tree mid-phase: iterate a snapshot of the order.
  const std::vector<sim::NodeId> order = tree.collection_order();
  for (sim::NodeId u : order) {
    done[u] = 1;
    std::vector<data::Tuple> contribution = std::move(pending[u]);
    select(u, &contribution);
    if (u == root) {
      at_root->insert(at_root->end(),
                      std::make_move_iterator(contribution.begin()),
                      std::make_move_iterator(contribution.end()));
      continue;
    }
    if (contribution.empty()) continue;

    size_t payload = 0;
    for (const data::Tuple& t : contribution) {
      payload += ctx.info(t.node).full_tuple_bytes;
    }
    sim::Message msg;
    msg.src = u;
    msg.dst = tree.parent(u);
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = payload;
    bool corrupted = false;
    if (!ladder.Send(msg, &corrupted)) {
      // Repair and relay the rows through already-processed ancestors.
      if (!ladder.RescueTuples(u, std::move(contribution), payload, phase,
                               done, pending, parent_ok)) {
        return false;
      }
      continue;
    }
    if (corrupted) {
      // With the CRC trailer off, garbled tuples slip through the link
      // layer but are unusable: the subtree's rows are lost.
      ++report->corrupted_deliveries;
      continue;
    }
    std::vector<data::Tuple>& up = pending[tree.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }
  return true;
}

bool ShipFinalTuples(PhaseView& view, FaultLadder& ladder,
                     ExecutionReport* report,
                     std::vector<data::Tuple>* candidates) {
  sim::Simulator& sim = view.sim;
  const obs::ScopedPhase span(sim.tracer(), sim.events(),
                              obs::Phase::kFinalResult);
  ladder.ArmWatchdog();
  const sim::NodeId root = view.tree.root();
  const auto select = [&view, report, root](sim::NodeId u,
                                            std::vector<data::Tuple>* out) {
    if (u == root || view.exited[u] || !view.filter[u].has_value()) return;
    const PointSet& filter = *view.filter[u];
    const ExecutorContext::NodeInfo& info = view.ctx.info(u);
    if (info.has_tuple && filter.Contains(view.key[u])) {
      out->push_back(info.tuple);
      ++report->final_tuples_shipped;
    }
    for (const data::Tuple& t : view.proxy_tuples[u]) {
      if (filter.Contains(view.key[t.node])) {
        out->push_back(t);
        ++report->final_tuples_shipped;
      }
    }
  };
  // A repair parent must still be in the protocol (the relay path above it
  // cannot contain Treecut-exited nodes: a non-exited node never has one
  // above it).
  if (!ConvergecastTuples(
          ladder, view.ctx, obs::Phase::kFinalResult, select, report,
          candidates, [&view](sim::NodeId c) { return !view.exited[c]; })) {
    return false;
  }
  sim.events().Run();
  sim.events().ShrinkToFit();
  return true;
}

}  // namespace sensjoin::join
