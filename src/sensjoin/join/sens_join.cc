#include "sensjoin/join/sens_join.h"

#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/phases.h"
#include "sensjoin/join/representation.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::join {

SensJoinExecutor::SensJoinExecutor(sim::Simulator& sim, net::RoutingTree tree,
                                   const data::NetworkData& data,
                                   QuantizationConfig quantization,
                                   ProtocolConfig config)
    : sim_(sim),
      tree_(std::move(tree)),
      data_(data),
      quantization_(std::move(quantization)),
      config_(config) {}

StatusOr<ExecutionReport> SensJoinExecutor::Execute(
    const query::AnalyzedQuery& q, uint64_t epoch) {
  if (q.num_tables() < 2) {
    return Status::InvalidArgument(
        "SENS-Join requires at least two relations in FROM");
  }
  if (config_.dmax_bytes >= sim_.packet_params().max_packet_bytes) {
    return Status::InvalidArgument(
        "Dmax must be below the maximum packet size (Sec. IV-E)");
  }
  return RunAttempts(
      sim_, tree_, config_, kMaxRecoveryRequests,
      /*attempt_span=*/std::nullopt,
      "SENS-Join failed after retries (network partitioned?)",
      [&](FaultLadder& ladder, ExecutionReport* report) {
        return ExecuteAttempt(q, epoch, ladder, report);
      });
}

StatusOr<bool> SensJoinExecutor::ExecuteAttempt(const query::AnalyzedQuery& q,
                                                uint64_t epoch,
                                                FaultLadder& ladder,
                                                ExecutionReport* report) {
  const ExecutorContext ctx(data_, q, epoch);
  const std::vector<int> dims = q.JoinAttrIndices();
  SENSJOIN_ASSIGN_OR_RETURN(
      Quantizer quantizer,
      Quantizer::FromConfig(q.schema(), dims, quantization_));
  const JoinAttrCodec codec(std::move(quantizer), ctx.num_relations());

  // What phases 1b and 2 read about each node; the collection fills it.
  PhaseView view(sim_, tree_, ctx, codec, config_);
  view.EncodeKeys(dims);
  const std::vector<uint64_t>& node_key = view.key;
  const int n = sim_.num_nodes();

  // Per-node collection state (Fig. 1).
  struct NodeState {
    std::vector<data::Tuple> pending_full;  ///< full tuples from children
    PointSet pending_attrs;                 ///< union of children structures
    bool any_attrs_child = false;
    /// SubtreeJoinAtts (children only); none = cannot prune.
    std::optional<PointSet> subtree_attrs;

    explicit NodeState(const JoinAttrCodec& codec)
        : pending_attrs(codec.EmptySet()) {}
  };
  std::vector<NodeState> states(n, NodeState(codec));
  view.prune_set = [&states](sim::NodeId u) -> const PointSet* {
    return states[u].subtree_attrs ? &*states[u].subtree_attrs : nullptr;
  };

  const sim::NodeId root = tree_.root();
  std::vector<data::Tuple> base_candidates;

  std::vector<uint64_t> union_scratch;  // recycled across per-node unions

  // One span per protocol phase on the trace timeline; events recorded
  // while a span is open (sends, acks, recovery requests) are attributed to
  // it, which is what trace_summary.py groups the per-phase cost tables by.
  // The optional lets spans cover the flat phase sections below without
  // re-scoping them; early returns close the open span on the way out.
  std::optional<obs::ScopedPhase> span;

  // ---- Phase 1a: Join-Attribute-Collection with Treecut (Fig. 2) --------
  span.emplace(sim_.tracer(), sim_.events(), obs::Phase::kJoinAttrCollection);
  ladder.ArmWatchdog();
  // Collection-turn flags: set when a node's upward send already happened.
  // Repairs mutate the tree mid-phase, so the traversal iterates a copy of
  // the order snapshot and late contributions are relayed through nodes
  // whose turn has passed.
  std::vector<char> done1a(n, 0);

  // Escalation for a persistent upward-send failure at `u` during
  // collection. `points` carries the subtree's join-attribute keys so a
  // late-merged contribution still reaches the base station's filter;
  // `tuples` holds the complete tuples of a Treecut contribution (empty for
  // structure sends). Returns false only when the attempt must abort.
  auto rescue_collection = [&](sim::NodeId u, const PointSet& points,
                               std::vector<data::Tuple> tuples,
                               size_t tuple_bytes) -> bool {
    const bool treecut = !tuples.empty();
    std::vector<sim::NodeId> tuple_nodes;
    tuple_nodes.reserve(tuples.size());
    for (const data::Tuple& t : tuples) tuple_nodes.push_back(t.node);
    // A Treecut contribution carries exactly these nodes' data; a structure
    // send aggregates the whole subtree: everything at or below u flows
    // through this hop.
    auto degrade = [&]() -> bool {
      return ladder.Degrade(u, treecut ? tuple_nodes : tree_.SubtreeNodes(u));
    };
    // A repaired orphan's new parent must still be in the protocol: Treecut
    // exits left it.
    if (!ladder.Repair(u, obs::Phase::kJoinAttrCollection,
                       [&view](sim::NodeId c) { return !view.exited[c]; })) {
      return degrade();
    }

    const sim::NodeId np = tree_.parent(u);
    sim::Message msg;
    msg.src = u;
    msg.dst = np;
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes =
        treecut ? tuple_bytes
                : StructureWireBytes(points, codec, config_.representation);
    bool corrupted = false;
    if (!ladder.Send(msg, &corrupted)) return degrade();
    if (corrupted) {
      // Damage on the rescued hop: the contribution is lost like any other
      // corrupt delivery (not certificate-tracked; see chaos invariants).
      ++report->corrupted_deliveries;
      return true;
    }
    NodeState& pstate = states[np];
    if (!done1a[np]) {
      // The new parent's collection turn is still to come: hand over the
      // contribution exactly like a regular child would.
      if (treecut) {
        pstate.pending_full.insert(pstate.pending_full.end(),
                                   std::make_move_iterator(tuples.begin()),
                                   std::make_move_iterator(tuples.end()));
      } else {
        pstate.pending_attrs.UnionInPlace(points, &union_scratch);
        pstate.any_attrs_child = true;
      }
      return true;
    }
    // The new parent already took its turn: it stores Treecut tuples as a
    // proxy, and the join-attribute keys are relayed hop by hop through
    // processed ancestors — merging them into each hop's
    // Selective-Filter-Forwarding snapshot so step 1b still prunes
    // correctly — until a node whose turn is still to come buffers them.
    if (treecut) {
      std::vector<data::Tuple>& proxy = view.proxy_tuples[np];
      proxy.insert(proxy.end(), std::make_move_iterator(tuples.begin()),
                   std::make_move_iterator(tuples.end()));
    }
    sim::NodeId v = np;
    while (done1a[v] && v != root) {
      NodeState& vs = states[v];
      if (vs.subtree_attrs) {
        vs.subtree_attrs->UnionInPlace(points, &union_scratch);
        if (config_.use_selective_forwarding &&
            StructureWireBytes(*vs.subtree_attrs, codec,
                               config_.representation) >
                static_cast<size_t>(config_.filter_memory_bytes)) {
          vs.subtree_attrs.reset();  // grew past budget: stop pruning
        }
      }
      view.sent_attrs[v] = 1;  // v is now part of the upward structure flow
      sim::Message relay;
      relay.src = v;
      relay.dst = tree_.parent(v);
      relay.kind = sim::MessageKind::kCollection;
      relay.payload_bytes =
          StructureWireBytes(points, codec, config_.representation);
      bool relay_corrupted = false;
      if (!ladder.Send(relay, &relay_corrupted)) return degrade();
      if (relay_corrupted) {
        ++report->corrupted_deliveries;
        return true;
      }
      v = tree_.parent(v);
    }
    states[v].pending_attrs.UnionInPlace(points, &union_scratch);
    states[v].any_attrs_child = true;
    return true;
  };

  const std::vector<sim::NodeId> order_1a = tree_.collection_order();
  for (sim::NodeId u : order_1a) {
    done1a[u] = 1;
    NodeState& s = states[u];
    const ExecutorContext::NodeInfo& info = ctx.info(u);

    if (u == root) {
      // The base station: complete tuples arriving here are already at
      // their destination; their join-attribute tuples still participate
      // in the filter join as potential partners.
      base_candidates = std::move(s.pending_full);
      std::vector<uint64_t> base_keys;
      base_keys.reserve(base_candidates.size());
      for (const data::Tuple& t : base_candidates) {
        base_keys.push_back(node_key[t.node]);
      }
      s.pending_attrs.InsertAll(std::move(base_keys));
      s.subtree_attrs = s.pending_attrs;  // powered node: no memory limit
      continue;
    }

    size_t full_bytes = info.has_tuple ? info.full_tuple_bytes : 0;
    for (const data::Tuple& t : s.pending_full) {
      full_bytes += ctx.info(t.node).full_tuple_bytes;
    }

    const bool treecut_applies =
        config_.use_treecut && !s.any_attrs_child &&
        full_bytes <= static_cast<size_t>(config_.dmax_bytes);
    if (treecut_applies) {
      // Hand the complete tuples to the parent and exit the query.
      std::vector<data::Tuple> contribution = std::move(s.pending_full);
      if (info.has_tuple) contribution.push_back(info.tuple);
      view.exited[u] = 1;
      ++report->treecut_exited_nodes;
      if (contribution.empty()) continue;
      sim::Message msg;
      msg.src = u;
      msg.dst = tree_.parent(u);
      msg.kind = sim::MessageKind::kCollection;
      msg.payload_bytes = full_bytes;
      bool corrupted = false;
      if (!ladder.Send(msg, &corrupted)) {
        // Rebuild the contribution's join-attribute keys so a successful
        // rescue can still register them with the base station's filter.
        PointSet keys = codec.EmptySet();
        std::vector<uint64_t> key_list;
        key_list.reserve(contribution.size());
        for (const data::Tuple& t : contribution) {
          key_list.push_back(node_key[t.node]);
        }
        keys.InsertAll(std::move(key_list));
        if (!rescue_collection(u, keys, std::move(contribution), full_bytes)) {
          return false;
        }
        continue;
      }
      if (corrupted) {
        // Garbled full tuples are unusable; the subtree's rows are lost.
        ++report->corrupted_deliveries;
        continue;
      }
      NodeState& p = states[tree_.parent(u)];
      p.pending_full.insert(p.pending_full.end(),
                            std::make_move_iterator(contribution.begin()),
                            std::make_move_iterator(contribution.end()));
      continue;
    }

    // Act as a proxy for received complete tuples; remember the subtree's
    // join-attribute structure for Selective Filter Forwarding.
    std::vector<data::Tuple>& proxy = view.proxy_tuples[u];
    proxy = std::move(s.pending_full);
    s.pending_full.clear();
    if (config_.use_selective_forwarding &&
        StructureWireBytes(s.pending_attrs, codec, config_.representation) <=
            static_cast<size_t>(config_.filter_memory_bytes)) {
      s.subtree_attrs = s.pending_attrs;
    }

    // After this turn u's accumulated structure is only needed as `out`
    // (subtree_attrs already holds its copy when selective forwarding kept
    // one), so hand the buffer over instead of cloning.
    PointSet out = std::move(s.pending_attrs);
    std::vector<uint64_t> local_keys;
    local_keys.reserve(proxy.size() + 1);
    for (const data::Tuple& t : proxy) {
      local_keys.push_back(node_key[t.node]);
    }
    if (info.has_tuple) local_keys.push_back(node_key[u]);
    out.InsertAll(std::move(local_keys));
    if (out.empty()) continue;  // nothing in this subtree
    view.VerifyWire(out);

    sim::Message msg;
    msg.src = u;
    msg.dst = tree_.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = StructureWireBytes(out, codec, config_.representation);
    bool corrupted = false;
    if (!ladder.Send(msg, &corrupted)) {
      if (!rescue_collection(u, out, {}, 0)) return false;
      // A degraded rescue leaves u out of the upward structure flow, so its
      // parent must not expect it as a dissemination target in step 1b.
      if (!ladder.IsExcluded(u)) view.sent_attrs[u] = 1;
      continue;
    }
    view.sent_attrs[u] = 1;
    if (corrupted) {
      auto damaged = view.ReceiveDamaged(out, report);
      if (!damaged.ok()) continue;  // parent discards the garbled structure
      out = std::move(*damaged);
    }
    NodeState& p = states[tree_.parent(u)];
    p.pending_attrs.UnionInPlace(out, &union_scratch);
    p.any_attrs_child = true;
  }
  sim_.events().Run();
  sim_.events().ShrinkToFit();
  span.reset();

  // ---- Base station: conservative filter join ---------------------------
  span.emplace(sim_.tracer(), sim_.events(), obs::Phase::kBaseStationJoin);
  const PointSet& collected = states[root].pending_attrs;
  const FilterJoinResult filter_result =
      ComputeJoinFilter(q, codec, collected);
  report->collected_points = collected.size();
  report->filter_points = filter_result.filter.size();
  span.reset();

  // ---- Phase 1b: Filter-Dissemination (Fig. 3) and phase 2 -------------
  if (!DisseminateFilter(view, ladder, filter_result.filter, report) ||
      !ShipFinalTuples(view, ladder, report, &base_candidates)) {
    return false;
  }

  report->candidate_tuples = base_candidates.size();
  report->result =
      ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));

  return true;
}

}  // namespace sensjoin::join
