#include "sensjoin/join/continuous.h"

#include <iterator>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/representation.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::join {
namespace {

/// A batch of multiset changes: +1 additions and -1 removals per key.
using Delta = std::map<uint64_t, int>;

void Merge(Delta* into, const Delta& from) {
  for (const auto& [key, change] : from) {
    const int v = ((*into)[key] += change);
    if (v == 0) into->erase(key);
  }
}

void Apply(std::map<uint64_t, int>* counts, const Delta& delta) {
  for (const auto& [key, change] : delta) {
    const int v = ((*counts)[key] += change);
    SENSJOIN_CHECK_GE(v, 0) << "multiset underflow for key" << key;
    if (v == 0) counts->erase(key);
  }
}

/// Wire size of a delta: additions and removals as two quadtree structures.
size_t DeltaWireBytes(const Delta& delta, const JoinAttrCodec& codec,
                      JoinAttrRepresentation representation) {
  std::vector<uint64_t> adds;
  std::vector<uint64_t> removes;
  for (const auto& [key, change] : delta) {
    for (int i = 0; i < change; ++i) adds.push_back(key);
    for (int i = 0; i < -change; ++i) removes.push_back(key);
  }
  // Multiplicity beyond one per structure costs a small repeat counter;
  // approximate it by the set sizes (duplicates in one epoch are rare).
  const PointSet add_set = PointSet::FromKeys(codec.layout(), adds);
  const PointSet remove_set = PointSet::FromKeys(codec.layout(), removes);
  return StructureWireBytes(add_set, codec, representation) +
         StructureWireBytes(remove_set, codec, representation);
}

PointSet SetView(const std::map<uint64_t, int>& counts,
                 const JoinAttrCodec& codec) {
  std::vector<uint64_t> keys;
  keys.reserve(counts.size());
  for (const auto& [key, count] : counts) {
    if (count > 0) keys.push_back(key);
  }
  return PointSet::FromKeys(codec.layout(), std::move(keys));
}

}  // namespace

DeltaGroupExecutor::DeltaGroupExecutor(sim::Simulator& sim,
                                       const data::NetworkData& data,
                                       QuantizationConfig quantization,
                                       ProtocolConfig config)
    : sim_(sim),
      data_(data),
      quantization_(std::move(quantization)),
      config_(config) {}

void DeltaGroupExecutor::Reset() {
  bootstrapped_ = false;
  tree_ = nullptr;
  ctx_.reset();
  codec_.reset();
  new_key_.clear();
  new_valid_.clear();
  last_key_.clear();
  last_valid_.clear();
  subtree_counts_.clear();
  base_counts_.clear();
}

bool DeltaGroupExecutor::SendWithResync(sim::Message msg, size_t* resyncs) {
  bool corrupted = false;
  if (sim_.SendUnicast(msg, &corrupted) && !corrupted) return true;
  if (!config_.enable_phase_recovery) return false;
  // A lost or garbled hop is re-pulled by the receiver (NACK down the hop,
  // re-send from stored state), a bounded number of times. Persistent
  // failures fall through to a full re-collection with tree rebuild — the
  // base multiset is never left silently stale.
  for (int r = 0; r < config_.max_recovery_requests; ++r) {
    if (!sim_.alive(msg.src) || !sim_.alive(msg.dst) ||
        !sim_.radio().LinkUp(msg.src, msg.dst)) {
      return false;  // persistent: needs CTP repair
    }
    sim::Message rereq;
    rereq.src = msg.dst;
    rereq.dst = msg.src;
    rereq.kind = sim::MessageKind::kControl;
    rereq.payload_bytes = 4;  // names the missing delta
    sim_.SendUnicast(rereq);
    ++*resyncs;
    if (obs::kTracingCompiledIn && sim_.tracer() != nullptr &&
        sim_.tracer()->enabled()) {
      sim_.tracer()->Record(obs::EventKind::kRecoveryRequest, sim_.now(),
                            msg.dst, msg.src, msg.kind, /*count=*/1,
                            /*bytes=*/0, /*energy_mj=*/0.0);
    }
    corrupted = false;
    if (sim_.SendUnicast(msg, &corrupted) && !corrupted) return true;
  }
  return false;
}

PointSet DeltaGroupExecutor::CollectedSet() const {
  SENSJOIN_CHECK(codec_ != nullptr) << "CollectedSet before Collect";
  return SetView(base_counts_, *codec_);
}

Status DeltaGroupExecutor::Collect(const net::RoutingTree& tree,
                                   const query::AnalyzedQuery& q,
                                   uint64_t epoch, CollectOutcome* out) {
  *out = CollectOutcome{};
  tree_ = &tree;
  const int n = sim_.num_nodes();
  const sim::NodeId root = tree.root();
  ctx_.emplace(data_, q, epoch);
  const std::vector<int> dims = q.JoinAttrIndices();

  if (!bootstrapped_) {
    last_key_.assign(n, 0);
    last_valid_.assign(n, 0);
    subtree_counts_.assign(n, {});
    base_counts_.clear();
    SENSJOIN_ASSIGN_OR_RETURN(
        Quantizer quantizer,
        Quantizer::FromConfig(q.schema(), dims, quantization_));
    codec_ = std::make_unique<JoinAttrCodec>(std::move(quantizer),
                                             ctx_->num_relations());
    out->bootstrap = true;
  }
  const JoinAttrCodec& codec = *codec_;

  // New keys for this epoch.
  new_key_.assign(n, 0);
  new_valid_.assign(n, 0);
  std::vector<double> dim_values(dims.size());
  for (sim::NodeId u = 0; u < n; ++u) {
    const ExecutorContext::NodeInfo& info = ctx_->info(u);
    if (!info.has_tuple || !tree.InTree(u) || u == root) continue;
    for (size_t d = 0; d < dims.size(); ++d) {
      dim_values[d] = info.tuple.values[dims[d]];
    }
    new_key_[u] = codec.EncodeTuple(dim_values, info.membership);
    new_valid_[u] = 1;
  }

  obs::ScopedPhase span(sim_.tracer(), sim_.events(),
                        obs::Phase::kJoinAttrCollection);

  // Deltas in flight towards each node during the leaf-to-root walk.
  std::vector<Delta> pending(n);
  for (sim::NodeId u : tree.collection_order()) {
    Delta delta = std::move(pending[u]);
    if (u == root) {
      // Apply to the base multiset, recording the set-level transitions the
      // incremental filter maintenance consumes.
      for (const auto& [key, change] : delta) {
        auto [it, inserted] = base_counts_.try_emplace(key, 0);
        const int before = it->second;
        const int after = (it->second += change);
        SENSJOIN_CHECK_GE(after, 0) << "multiset underflow for key" << key;
        if (before == 0 && after > 0) out->added.push_back(key);
        if (before > 0 && after == 0) out->removed.push_back(key);
        if (after == 0) base_counts_.erase(it);
      }
      break;  // root is last in collection order
    }
    // Incremental SubtreeJoinAtts maintenance: the delta from below is
    // exactly the change of this node's descendant multiset.
    Apply(&subtree_counts_[u], delta);

    // This node's own key change: its last reported key leaves, its new
    // key arrives.
    if (last_valid_[u] != new_valid_[u] ||
        (new_valid_[u] && last_key_[u] != new_key_[u])) {
      ++out->changed_nodes;
      if (last_valid_[u]) Merge(&delta, Delta{{last_key_[u], -1}});
      if (new_valid_[u]) Merge(&delta, Delta{{new_key_[u], 1}});
    }
    last_key_[u] = new_key_[u];
    last_valid_[u] = new_valid_[u];

    if (delta.empty()) continue;
    sim::Message msg;
    msg.src = u;
    msg.dst = tree.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = DeltaWireBytes(delta, codec, config_.representation);
    if (!SendWithResync(msg, &out->resyncs)) {
      out->failed = true;
      return Status::Ok();
    }
    Merge(&pending[msg.dst], delta);
  }
  sim_.events().Run();

  bootstrapped_ = true;
  return Status::Ok();
}

Status DeltaGroupExecutor::DisseminateAndFinalize(const PointSet& filter,
                                                  FinalOutcome* out) {
  *out = FinalOutcome{};
  SENSJOIN_CHECK(tree_ != nullptr && ctx_.has_value())
      << "DisseminateAndFinalize without a preceding Collect";
  const net::RoutingTree& tree = *tree_;
  const int n = sim_.num_nodes();
  const sim::NodeId root = tree.root();
  const JoinAttrCodec& codec = *codec_;

  // ---- Filter dissemination ----------------------------------------------
  std::vector<PointSet> filter_at(n, codec.EmptySet());
  std::vector<char> got_filter(n, 0);
  filter_at[root] = filter;
  got_filter[root] = 1;
  {
    obs::ScopedPhase span(sim_.tracer(), sim_.events(),
                          obs::Phase::kFilterDissemination);
    for (sim::NodeId u : tree.dissemination_order()) {
      if (!got_filter[u]) continue;
      // A child needs the filter only if its subtree ever reported data.
      std::vector<sim::NodeId> targets;
      for (sim::NodeId c : tree.children(u)) {
        if (!subtree_counts_[c].empty() || last_valid_[c]) {
          targets.push_back(c);
        }
      }
      if (targets.empty()) continue;
      const PointSet subtree_view = u == root
                                        ? SetView(base_counts_, codec)
                                        : SetView(subtree_counts_[u], codec);
      PointSet forward = filter_at[u];
      const bool can_prune =
          config_.use_selective_forwarding &&
          (u == root ||
           StructureWireBytes(subtree_view, codec, config_.representation) <=
               static_cast<size_t>(config_.filter_memory_bytes));
      if (can_prune) {
        // Include the children's own keys, which the subtree multiset of u
        // already covers (it aggregates everything reported from below).
        forward = PointSet::Intersect(filter_at[u], subtree_view);
      }
      if (forward.empty()) continue;
      for (sim::NodeId c : targets) {
        if (!sim_.radio().LinkUp(u, c)) {
          out->failed = true;
          return Status::Ok();
        }
      }
      sim::Message msg;
      msg.src = u;
      msg.kind = sim::MessageKind::kFilter;
      msg.payload_bytes =
          StructureWireBytes(forward, codec, config_.representation);
      sim_.Broadcast(std::move(msg));
      for (sim::NodeId c : targets) {
        filter_at[c] = forward;
        got_filter[c] = 1;
      }
    }
    sim_.events().Run();
  }

  // ---- Final result computation ------------------------------------------
  obs::ScopedPhase span(sim_.tracer(), sim_.events(),
                        obs::Phase::kFinalResult);
  std::vector<std::vector<data::Tuple>> pending_final(n);
  for (sim::NodeId u : tree.collection_order()) {
    std::vector<data::Tuple> contribution = std::move(pending_final[u]);
    if (u == root) {
      out->candidates = std::move(contribution);
      break;  // root is last in collection order
    }
    if (got_filter[u] && new_valid_[u] && filter_at[u].Contains(new_key_[u])) {
      contribution.push_back(ctx_->info(u).tuple);
      ++out->final_tuples_shipped;
    }
    if (contribution.empty()) continue;
    size_t payload = 0;
    for (const data::Tuple& t : contribution) {
      payload += ctx_->info(t.node).full_tuple_bytes;
    }
    sim::Message msg;
    msg.src = u;
    msg.dst = tree.parent(u);
    msg.kind = sim::MessageKind::kFinal;
    msg.payload_bytes = payload;
    if (!SendWithResync(msg, &out->resyncs)) {
      out->failed = true;
      return Status::Ok();
    }
    std::vector<data::Tuple>& up = pending_final[msg.dst];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }
  sim_.events().Run();
  return Status::Ok();
}

}  // namespace sensjoin::join
