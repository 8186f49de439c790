#include "sensjoin/join/sens_join.h"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/net/tree_maintenance.h"
#include "sensjoin/obs/trace.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/representation.h"

namespace sensjoin::join {
namespace {

/// Join attributes of the query: the union over all FROM entries, in schema
/// order (Definition 1 — a join-attribute tuple projects onto the join
/// attributes of the query; for self-joins the aliases' attributes usually
/// coincide and are sent once, Sec. IV-B).
std::vector<int> QueryJoinAttrIndices(const query::AnalyzedQuery& q) {
  std::set<int> attrs;
  for (int t = 0; t < q.num_tables(); ++t) {
    attrs.insert(q.table(t).join_attr_indices.begin(),
                 q.table(t).join_attr_indices.end());
  }
  return std::vector<int>(attrs.begin(), attrs.end());
}

}  // namespace

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
  size_t recovery_requests_total = 0;
  size_t repairs_attempted_total = 0;
  size_t repairs_succeeded_total = 0;
  size_t watchdog_expirations_total = 0;
  const StatsSnapshot execute_snapshot(sim_);

  // Exactly-once validation: every unicast of the execution is stamped with
  // an (attempt, per-link sequence) tag, and every queue-level delivery is
  // fed through the guard. The canonical state application happens inline
  // at send time (the omniscient-driver model), so the handler's verdicts
  // drive counters and trace events, never protocol state — which is what
  // keeps fault-free runs bit-identical to the seed.
  DeliveryGuard guard(
      config_.dedup_window,
      config_.charge_tag_wire_bytes ? config_.tag_wire_bytes : 0);
  auto previous_handler = sim_.SetReceiveHandler(
      [this, &guard](sim::NodeId receiver, const sim::Message& msg) {
        const DeliveryVerdict verdict = guard.Classify(receiver, msg);
        if (verdict == DeliveryVerdict::kStale && obs::kTracingCompiledIn &&
            sim_.tracer() != nullptr && sim_.tracer()->enabled()) {
          sim_.tracer()->Record(obs::EventKind::kStaleDrop, sim_.now(),
                                receiver, msg.src, msg.kind, /*count=*/1,
                                /*bytes=*/0, /*energy_mj=*/0.0,
                                /*detail=*/msg.tag.attempt_id);
        }
      });
  struct HandlerRestore {
    sim::Simulator& sim;
    sim::Simulator::ReceiveHandler previous;
    ~HandlerRestore() { sim.SetReceiveHandler(std::move(previous)); }
  } handler_restore{sim_, std::move(previous_handler)};

  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    guard.BeginAttempt(static_cast<uint32_t>(attempt));
    // In-flight messages captured from an aborted attempt are re-delivered
    // now; the guard classifies them as stale (their attempt id is old).
    sim_.ReleaseReplays();
    ExecutionReport report;
    report.attempts = attempt + 1;
    const StatsSnapshot snapshot(sim_);
    const double start_time = sim_.now();
    bool failed = false;
    SENSJOIN_RETURN_IF_ERROR(ExecuteAttempt(q, epoch, &guard, &report, &failed));
    // Capture still-flying deliveries of an aborted attempt for replay
    // before the drain delivers them normally.
    if (failed) sim_.NotifyAttemptAbort();
    sim_.events().Run();
    if (!failed) {
      report.success = true;
      report.recovery_requests += recovery_requests_total;
      report.repairs_attempted += repairs_attempted_total;
      report.repairs_succeeded += repairs_succeeded_total;
      report.watchdog_expirations += watchdog_expirations_total;
      report.duplicate_deliveries = guard.duplicate_deliveries();
      report.stale_messages_dropped = guard.stale_drops();
      report.reordered_messages = guard.reordered_deliveries();
      SENSJOIN_CHECK_EQ(guard.phantom_deliveries(), 0u)
          << "delivery validator saw a tag that was never stamped";
      report.cost = snapshot.DeltaTo(sim_);
      report.total_cost = execute_snapshot.DeltaTo(sim_);
      report.response_time_s = sim_.now() - start_time;
      return report;
    }
    recovery_requests_total += report.recovery_requests;
    repairs_attempted_total += report.repairs_attempted;
    repairs_succeeded_total += report.repairs_succeeded;
    watchdog_expirations_total += report.watchdog_expirations;
    // Link failure: wait out the CTP repair window (scheduled node
    // recoveries can fire meanwhile), let the tree protocol re-establish
    // routes, and re-execute the query (Sec. IV-F).
    if (config_.retry_backoff_s > 0) {
      sim_.events().RunUntil(sim_.now() + config_.retry_backoff_s);
    }
    tree_ = net::RoutingTree::Build(sim_, tree_.root());
  }
  return Status::ResourceExhausted(
      "SENS-Join failed after retries (network partitioned?)");
}

Status SensJoinExecutor::ExecuteAttempt(const query::AnalyzedQuery& q,
                                        uint64_t epoch, DeliveryGuard* guard,
                                        ExecutionReport* report,
                                        bool* failed) {
  *failed = false;
  const ExecutorContext ctx(data_, q, epoch);

  // Hop delivery with phase-level recovery: when a send fails but both
  // endpoints are alive and the link is up (transient loss that outlasted
  // the ARQ budget), the receiver re-requests just the missing contribution
  // (NACK down the hop) and the sender re-sends from stored state, a
  // bounded number of times. Persistent failures — crashes, downed links —
  // fall through to the full re-execution with tree rebuild.
  //
  // The message is stamped once, before the first send; recovery resends
  // keep the tag (the receiver's dedup window is what makes a resend of a
  // message that did arrive safe). A permanently failed send retracts its
  // tag so the ordering check never waits on a delivery that cannot come.
  auto send_with_recovery = [this, guard, report](
                                sim::Message msg,
                                bool* corrupted = nullptr) -> bool {
    guard->Stamp(msg);
    if (sim_.SendUnicast(msg, corrupted)) return true;
    if (!config_.enable_phase_recovery) {
      guard->Retract(msg);
      return false;
    }
    for (int r = 0; r < config_.max_recovery_requests; ++r) {
      if (!sim_.alive(msg.src) || !sim_.alive(msg.dst) ||
          !sim_.radio().LinkUp(msg.src, msg.dst)) {
        guard->Retract(msg);
        return false;  // persistent: needs CTP repair
      }
      sim::Message rereq;
      rereq.src = msg.dst;
      rereq.dst = msg.src;
      rereq.kind = sim::MessageKind::kControl;
      rereq.payload_bytes = 4;  // names the missing contribution
      guard->Stamp(rereq);
      if (!sim_.SendUnicast(rereq)) guard->Retract(rereq);
      ++report->recovery_requests;
      if (obs::kTracingCompiledIn && sim_.tracer() != nullptr &&
          sim_.tracer()->enabled()) {
        sim_.tracer()->Record(obs::EventKind::kRecoveryRequest, sim_.now(),
                              msg.dst, msg.src, msg.kind, /*count=*/1,
                              /*bytes=*/0, /*energy_mj=*/0.0);
      }
      if (sim_.SendUnicast(msg, corrupted)) return true;
    }
    guard->Retract(msg);
    return false;
  };

  const std::vector<int> dims = QueryJoinAttrIndices(q);
  SENSJOIN_ASSIGN_OR_RETURN(
      Quantizer quantizer,
      Quantizer::FromConfig(q.schema(), dims, quantization_));
  const JoinAttrCodec codec(std::move(quantizer), ctx.num_relations());

  // Per-node join-attribute keys.
  const int n = sim_.num_nodes();
  std::vector<uint64_t> node_key(n, 0);
  std::vector<double> dim_values(dims.size());
  for (sim::NodeId u = 0; u < n; ++u) {
    const ExecutorContext::NodeInfo& info = ctx.info(u);
    if (!info.has_tuple) continue;
    for (size_t d = 0; d < dims.size(); ++d) {
      dim_values[d] = info.tuple.values[dims[d]];
    }
    node_key[u] = codec.EncodeTuple(dim_values, info.membership);
  }

  // Per-node protocol state (Fig. 1).
  struct NodeState {
    std::vector<data::Tuple> pending_full;  ///< full tuples from children
    PointSet pending_attrs;                 ///< union of children structures
    bool any_attrs_child = false;
    bool sent_attrs = false;   ///< sent a join-attribute structure upward
    bool exited = false;       ///< finished via Treecut
    std::vector<data::Tuple> proxy_tuples;  ///< stored complete tuples
    PointSet subtree_attrs;    ///< SubtreeJoinAtts (children only)
    bool has_subtree_attrs = false;
    PointSet filter;           ///< received join filter
    bool got_filter = false;

    explicit NodeState(const JoinAttrCodec& codec)
        : pending_attrs(codec.EmptySet()),
          subtree_attrs(codec.EmptySet()),
          filter(codec.EmptySet()) {}
  };
  std::vector<NodeState> states(n, NodeState(codec));

  const sim::NodeId root = tree_.root();
  std::vector<data::Tuple> base_candidates;

  // --- Self-healing machinery ---------------------------------------------
  // Persistent hop failures escalate in order: phase watchdog (give up on a
  // phase that overran its sim-time budget) -> in-network tree repair
  // (re-attach the stranded subtree and re-route its buffered state) ->
  // graceful degradation (certify the loss and finish over the reachable
  // field). Everything here is inert under the default config, keeping
  // fault-free runs bit-identical to the seed.
  std::set<sim::NodeId> excluded;                // nodes whose data is lost
  std::vector<sim::NodeId> excluded_roots;       // shallowest node per loss
  std::vector<sim::NodeId> repaired_roots;       // re-attached orphans
  std::vector<uint64_t> union_scratch;  // recycled across per-node unions
  std::optional<net::TreeMaintenance> maintenance;
  if (config_.enable_tree_repair) {
    net::TreeMaintenanceConfig mc;
    mc.max_repair_rounds = config_.max_repair_rounds;
    mc.round_wait_s = config_.repair_round_wait_s;
    mc.stamp = [guard](sim::Message& m) { guard->Stamp(m); };
    mc.retract = [guard](const sim::Message& m) { guard->Retract(m); };
    maintenance.emplace(sim_, tree_, mc);
  }

  auto trace_on = [this] {
    return obs::kTracingCompiledIn && sim_.tracer() != nullptr &&
           sim_.tracer()->enabled();
  };

  auto record_exclusion = [&excluded, &excluded_roots](
                              sim::NodeId at,
                              const std::vector<sim::NodeId>& nodes) {
    excluded_roots.push_back(at);
    excluded.insert(nodes.begin(), nodes.end());
  };

  // Admission predicate handed to TreeMaintenance: a new parent must still
  // be in the protocol (Treecut exits left it) and must not forward through
  // a branch whose contribution was already given up on (its path would be
  // silent for the rest of the execution).
  auto repair_parent_ok = [&](sim::NodeId cand) {
    if (states[cand].exited) return false;
    for (sim::NodeId v = cand; v != root; v = tree_.parent(v)) {
      if (excluded.count(v) != 0) return false;
    }
    return true;
  };

  // Phase watchdog: each phase gets a deadline scaled by tree depth; once a
  // phase overruns it, the executor stops repairing and degrades instead of
  // stalling in unbounded recovery loops.
  double phase_deadline = sim::kSimTimeMax;
  auto arm_watchdog = [&] {
    phase_deadline = config_.enable_phase_watchdog
                         ? sim_.now() + config_.watchdog_base_s +
                               tree_.max_depth() * sim_.per_packet_latency_s() *
                                   config_.watchdog_per_hop_factor
                         : sim::kSimTimeMax;
  };
  auto watchdog_expired = [&](obs::Phase phase) {
    if (sim_.now() <= phase_deadline) return false;
    ++report->watchdog_expirations;
    if (trace_on()) {
      sim_.tracer()->Record(obs::EventKind::kDeadlineExpired, sim_.now(), root,
                            sim::kInvalidNode, sim::MessageKind::kControl,
                            /*count=*/0, /*bytes=*/0, /*energy_mj=*/0.0,
                            /*detail=*/static_cast<uint32_t>(phase));
    }
    return true;
  };

  // With the CRC trailer disabled, a delivery can arrive with a damaged
  // payload. For the quadtree wire format the damage is materialized on the
  // actual encoding and run through the hardened decoder: a parseable
  // result is used as-is (wrong but safe); an unparseable one means the
  // receiver discards the structure, like a loss the ARQ missed. Other
  // representations (and full-tuple payloads) have no bit-level wire model,
  // so there a corrupt delivery always drops the contribution.
  auto receive_damaged = [this, &codec,
                          report](const PointSet& sent) -> StatusOr<PointSet> {
    ++report->corrupted_deliveries;
    if (config_.representation != JoinAttrRepresentation::kQuadtree) {
      return Status::InvalidArgument("no wire model for representation");
    }
    return PointSet::Decode(codec.layout(), sim_.DamagePayload(sent.Encode()));
  };

  // Fidelity check (tests): everything handed to the radio must survive an
  // actual serialize/parse roundtrip through the Fig. 9 wire format.
  auto verify_wire = [this, &codec,
                      scratch = BitWriter{}](const PointSet& set) mutable {
    if (!config_.verify_wire_roundtrip ||
        config_.representation != JoinAttrRepresentation::kQuadtree) {
      return;
    }
    set.EncodeTo(&scratch);  // one encoding buffer across all nodes
    auto decoded = PointSet::Decode(codec.layout(), scratch);
    SENSJOIN_CHECK(decoded.ok()) << decoded.status();
    SENSJOIN_CHECK(*decoded == set) << "wire roundtrip mismatch";
  };

  // One span per protocol phase on the trace timeline; events recorded
  // while a span is open (sends, acks, recovery requests) are attributed to
  // it, which is what trace_summary.py groups the per-phase cost tables by.
  // The optional lets spans cover the flat phase sections below without
  // re-scoping them; early returns close the open span on the way out.
  std::optional<obs::ScopedPhase> span;

  // ---- Phase 1a: Join-Attribute-Collection with Treecut (Fig. 2) --------
  span.emplace(sim_.tracer(), sim_.events(), obs::Phase::kJoinAttrCollection);
  arm_watchdog();
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
    auto degrade = [&]() -> bool {
      if (!config_.enable_graceful_degradation) return false;
      if (treecut) {
        // A Treecut contribution carries exactly these nodes' data.
        record_exclusion(u, tuple_nodes);
      } else {
        // A structure send aggregates the whole subtree: everything at or
        // below u flows through this hop.
        record_exclusion(u, tree_.SubtreeNodes(u));
      }
      return true;
    };
    if (watchdog_expired(obs::Phase::kJoinAttrCollection)) return degrade();
    if (!maintenance) return degrade();
    ++report->repairs_attempted;
    if (!maintenance->Repair(u, repair_parent_ok)) return degrade();
    ++report->repairs_succeeded;
    repaired_roots.push_back(u);

    const sim::NodeId np = tree_.parent(u);
    sim::Message msg;
    msg.src = u;
    msg.dst = np;
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes =
        treecut ? tuple_bytes
                : StructureWireBytes(points, codec, config_.representation);
    bool corrupted = false;
    if (!send_with_recovery(msg, &corrupted)) return degrade();
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
      pstate.proxy_tuples.insert(pstate.proxy_tuples.end(),
                                 std::make_move_iterator(tuples.begin()),
                                 std::make_move_iterator(tuples.end()));
    }
    sim::NodeId v = np;
    while (done1a[v] && v != root) {
      NodeState& vs = states[v];
      if (vs.has_subtree_attrs) {
        vs.subtree_attrs.UnionInPlace(points, &union_scratch);
        if (config_.use_selective_forwarding &&
            StructureWireBytes(vs.subtree_attrs, codec,
                               config_.representation) >
                static_cast<size_t>(config_.filter_memory_bytes)) {
          vs.has_subtree_attrs = false;  // grew past budget: stop pruning
        }
      }
      vs.sent_attrs = true;  // v is now part of the upward structure flow
      sim::Message relay;
      relay.src = v;
      relay.dst = tree_.parent(v);
      relay.kind = sim::MessageKind::kCollection;
      relay.payload_bytes =
          StructureWireBytes(points, codec, config_.representation);
      bool relay_corrupted = false;
      if (!send_with_recovery(relay, &relay_corrupted)) return degrade();
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
      s.has_subtree_attrs = true;
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
      s.exited = true;
      ++report->treecut_exited_nodes;
      if (contribution.empty()) continue;
      sim::Message msg;
      msg.src = u;
      msg.dst = tree_.parent(u);
      msg.kind = sim::MessageKind::kCollection;
      msg.payload_bytes = full_bytes;
      bool corrupted = false;
      if (!send_with_recovery(msg, &corrupted)) {
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
          *failed = true;
          return Status::Ok();
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
    s.proxy_tuples = std::move(s.pending_full);
    s.pending_full.clear();
    if (config_.use_selective_forwarding &&
        StructureWireBytes(s.pending_attrs, codec, config_.representation) <=
            static_cast<size_t>(config_.filter_memory_bytes)) {
      s.subtree_attrs = s.pending_attrs;
      s.has_subtree_attrs = true;
    }

    // After this turn u's accumulated structure is only needed as `out`
    // (subtree_attrs already holds its copy when selective forwarding kept
    // one), so hand the buffer over instead of cloning.
    PointSet out = std::move(s.pending_attrs);
    std::vector<uint64_t> local_keys;
    local_keys.reserve(s.proxy_tuples.size() + 1);
    for (const data::Tuple& t : s.proxy_tuples) {
      local_keys.push_back(node_key[t.node]);
    }
    if (info.has_tuple) local_keys.push_back(node_key[u]);
    out.InsertAll(std::move(local_keys));
    if (out.empty()) continue;  // nothing in this subtree
    verify_wire(out);

    sim::Message msg;
    msg.src = u;
    msg.dst = tree_.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = StructureWireBytes(out, codec, config_.representation);
    bool corrupted = false;
    if (!send_with_recovery(msg, &corrupted)) {
      if (!rescue_collection(u, out, {}, 0)) {
        *failed = true;
        return Status::Ok();
      }
      // A degraded rescue leaves u out of the upward structure flow, so its
      // parent must not expect it as a dissemination target in step 1b.
      if (excluded.count(u) == 0) s.sent_attrs = true;
      continue;
    }
    s.sent_attrs = true;
    if (corrupted) {
      auto damaged = receive_damaged(out);
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

  // ---- Phase 1b: Filter-Dissemination (Fig. 3) ---------------------------
  span.emplace(sim_.tracer(), sim_.events(), obs::Phase::kFilterDissemination);
  arm_watchdog();
  states[root].filter = filter_result.filter;
  states[root].got_filter = true;
  // No in-network repair in this phase: a re-attached child would need its
  // ancestor-pruned filter widened to the new path's subtree, which cannot
  // be reconstructed locally without risking silent row loss. A child that
  // cannot be reached degrades into a certified exclusion instead.
  for (sim::NodeId u : tree_.dissemination_order()) {
    NodeState& s = states[u];
    if (s.exited || !s.got_filter) continue;

    std::vector<sim::NodeId> targets;
    for (sim::NodeId c : tree_.children(u)) {
      if (states[c].sent_attrs) targets.push_back(c);
    }
    if (targets.empty()) continue;

    PointSet forward = s.has_subtree_attrs
                           ? PointSet::Intersect(s.filter, s.subtree_attrs)
                           : s.filter;  // over budget: cannot prune
    if (forward.empty()) continue;  // subtree holds no result tuples
    verify_wire(forward);

    sim::Message msg;
    msg.src = u;
    msg.kind = sim::MessageKind::kFilter;
    msg.payload_bytes =
        StructureWireBytes(forward, codec, config_.representation);
    std::vector<sim::NodeId> reached;
    std::vector<sim::NodeId> corrupted_rx;
    sim_.Broadcast(msg, &reached, &corrupted_rx);
    for (sim::NodeId c : targets) {
      bool have = false;
      PointSet child_filter = forward;
      if (std::find(reached.begin(), reached.end(), c) != reached.end()) {
        if (std::find(corrupted_rx.begin(), corrupted_rx.end(), c) !=
            corrupted_rx.end()) {
          auto damaged = receive_damaged(forward);
          if (damaged.ok()) {
            child_filter = std::move(*damaged);
            have = true;
          }
          // Unparseable filter: as good as a missed broadcast — fall
          // through to the unicast resend.
        } else {
          have = true;
        }
      }
      if (!have) {
        if (config_.enable_graceful_degradation &&
            watchdog_expired(obs::Phase::kFilterDissemination)) {
          record_exclusion(c, tree_.SubtreeNodes(c));
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
        if (!config_.enable_phase_recovery ||
            !send_with_recovery(resend, &corrupted)) {
          if (config_.enable_graceful_degradation) {
            // The filter cannot reach c: its subtree ships nothing in the
            // final phase, so certify the whole branch as excluded.
            record_exclusion(c, tree_.SubtreeNodes(c));
            continue;
          }
          *failed = true;
          return Status::Ok();
        }
        child_filter = forward;
        if (corrupted) {
          auto damaged = receive_damaged(forward);
          // A resend that arrives garbled and unparseable leaves the child
          // without a filter: its subtree ships nothing in phase 2.
          if (!damaged.ok()) continue;
          child_filter = std::move(*damaged);
        }
      }
      states[c].filter = std::move(child_filter);
      states[c].got_filter = true;
    }
  }
  sim_.events().Run();
  sim_.events().ShrinkToFit();
  span.reset();

  // ---- Phase 2: Final-Result-Computation ---------------------------------
  span.emplace(sim_.tracer(), sim_.events(), obs::Phase::kFinalResult);
  arm_watchdog();
  std::vector<std::vector<data::Tuple>> pending_final(n);
  std::vector<char> done2(n, 0);

  // Escalation for a persistent upward kFinal failure at `u`: repair the
  // tree and re-route the contribution, relaying it hop by hop through
  // already-processed ancestors until a node whose turn is still to come
  // buffers it (the relay path cannot contain Treecut-exited nodes: a
  // non-exited node never has an exited ancestor). Returns false only when
  // the attempt must abort.
  auto rescue_final = [&](sim::NodeId u, std::vector<data::Tuple> contribution,
                          size_t payload) -> bool {
    std::vector<sim::NodeId> lost;
    lost.reserve(contribution.size());
    for (const data::Tuple& t : contribution) lost.push_back(t.node);
    auto degrade = [&]() -> bool {
      if (!config_.enable_graceful_degradation) return false;
      // A final-phase contribution carries exactly these nodes' rows.
      record_exclusion(u, lost);
      return true;
    };
    if (watchdog_expired(obs::Phase::kFinalResult)) return degrade();
    if (!maintenance) return degrade();
    ++report->repairs_attempted;
    if (!maintenance->Repair(u, repair_parent_ok)) return degrade();
    ++report->repairs_succeeded;
    repaired_roots.push_back(u);
    sim::NodeId v = u;
    for (;;) {
      const sim::NodeId dst = tree_.parent(v);
      sim::Message msg;
      msg.src = v;
      msg.dst = dst;
      msg.kind = sim::MessageKind::kFinal;
      msg.payload_bytes = payload;
      bool corrupted = false;
      if (!send_with_recovery(msg, &corrupted)) return degrade();
      if (corrupted) {
        // Garbled result rows are discarded upstream like any other
        // corrupt delivery (the chaos invariants gate exactness on zero
        // corrupted deliveries).
        ++report->corrupted_deliveries;
        return true;
      }
      v = dst;
      if (!done2[v]) break;  // v's turn is still to come: it buffers
    }
    std::vector<data::Tuple>& up = pending_final[v];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
    return true;
  };

  const std::vector<sim::NodeId> order_2 = tree_.collection_order();
  for (sim::NodeId u : order_2) {
    done2[u] = 1;
    NodeState& s = states[u];
    if (u != root && s.exited) continue;

    std::vector<data::Tuple> contribution = std::move(pending_final[u]);
    if (u != root && s.got_filter) {
      const ExecutorContext::NodeInfo& info = ctx.info(u);
      if (info.has_tuple && s.filter.Contains(node_key[u])) {
        contribution.push_back(info.tuple);
        ++report->final_tuples_shipped;
      }
      for (const data::Tuple& t : s.proxy_tuples) {
        if (s.filter.Contains(node_key[t.node])) {
          contribution.push_back(t);
          ++report->final_tuples_shipped;
        }
      }
    }
    if (u == root) {
      base_candidates.insert(base_candidates.end(),
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
    msg.dst = tree_.parent(u);
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = payload;
    bool corrupted = false;
    if (!send_with_recovery(msg, &corrupted)) {
      if (!rescue_final(u, std::move(contribution), payload)) {
        *failed = true;
        return Status::Ok();
      }
      continue;
    }
    if (corrupted) {
      // Garbled result rows are discarded upstream.
      ++report->corrupted_deliveries;
      continue;
    }
    std::vector<data::Tuple>& up = pending_final[tree_.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }
  sim_.events().Run();
  sim_.events().ShrinkToFit();
  span.reset();

  report->candidate_tuples = base_candidates.size();
  report->result =
      ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));

  // ---- Completeness certificate ------------------------------------------
  // Nodes the routing tree never reached (partitioned field, dead at build
  // time) are counted as excluded even with graceful degradation disabled:
  // their data cannot be in the result and the certificate must say so.
  for (sim::NodeId u : tree_.UnreachableNodes()) {
    if (excluded.insert(u).second) excluded_roots.push_back(u);
  }
  CompletenessCertificate& cert = report->certificate;
  cert.excluded_nodes.assign(excluded.begin(), excluded.end());
  std::sort(excluded_roots.begin(), excluded_roots.end());
  excluded_roots.erase(
      std::unique(excluded_roots.begin(), excluded_roots.end()),
      excluded_roots.end());
  cert.excluded_subtree_roots = std::move(excluded_roots);
  std::sort(repaired_roots.begin(), repaired_roots.end());
  repaired_roots.erase(
      std::unique(repaired_roots.begin(), repaired_roots.end()),
      repaired_roots.end());
  cert.repaired_roots = std::move(repaired_roots);
  cert.total_nodes = n;
  cert.reporting_nodes = n - static_cast<int>(cert.excluded_nodes.size());
  cert.degraded = !cert.excluded_nodes.empty();
  if (cert.degraded && trace_on()) {
    sim_.tracer()->Record(obs::EventKind::kDegradedResult, sim_.now(), root,
                          sim::kInvalidNode, sim::MessageKind::kControl,
                          static_cast<uint32_t>(cert.excluded_nodes.size()),
                          /*bytes=*/0, /*energy_mj=*/0.0);
  }
  return Status::Ok();
}

}  // namespace sensjoin::join
