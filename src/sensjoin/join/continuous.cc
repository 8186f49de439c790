#include "sensjoin/join/continuous.h"

#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/fault_ladder.h"
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
  view_.reset();
  ctx_.reset();
  codec_.reset();
  last_key_.clear();
  last_valid_.clear();
  subtree_counts_.clear();
  base_counts_.clear();
}

PointSet DeltaGroupExecutor::CollectedSet() const {
  SENSJOIN_CHECK(codec_ != nullptr) << "CollectedSet before Collect";
  return SetView(base_counts_, *codec_);
}

StatusOr<bool> DeltaGroupExecutor::Collect(FaultLadder& ladder,
                                           const net::RoutingTree& tree,
                                           const query::AnalyzedQuery& q,
                                           uint64_t epoch,
                                           CollectOutcome* out) {
  *out = CollectOutcome{};
  view_.reset();
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
  view_.emplace(sim_, tree, *ctx_, codec, config_);
  view_->EncodeKeys(dims);

  // This epoch's reported keys: in-tree sensor nodes with a tuple.
  const std::vector<uint64_t>& new_key = view_->key;
  std::vector<char> new_valid(n, 0);
  for (sim::NodeId u = 0; u < n; ++u) {
    new_valid[u] = ctx_->info(u).has_tuple && tree.InTree(u) && u != root;
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
    if (last_valid_[u] != new_valid[u] ||
        (new_valid[u] && last_key_[u] != new_key[u])) {
      ++out->changed_nodes;
      if (last_valid_[u]) Merge(&delta, Delta{{last_key_[u], -1}});
      if (new_valid[u]) Merge(&delta, Delta{{new_key[u], 1}});
    }
    last_key_[u] = new_key[u];
    last_valid_[u] = new_valid[u];

    if (delta.empty()) continue;
    sim::Message msg;
    msg.src = u;
    msg.dst = tree.parent(u);
    msg.kind = sim::MessageKind::kCollection;
    msg.payload_bytes = DeltaWireBytes(delta, codec, config_.representation);
    // A garbled delta (CRC trailer off) cannot be applied to the multisets
    // safely: like a persistently lost one, it fails the attempt, which
    // re-bootstraps after the tree rebuild.
    bool corrupted = false;
    if (!ladder.Send(msg, &corrupted) || corrupted) return false;
    Merge(&pending[msg.dst], delta);
  }
  sim_.events().Run();

  bootstrapped_ = true;
  return true;
}

bool DeltaGroupExecutor::RunFinalPhases(FaultLadder& ladder,
                                        const PointSet& filter,
                                        ExecutionReport* report,
                                        std::vector<data::Tuple>* candidates) {
  SENSJOIN_CHECK(view_.has_value())
      << "RunFinalPhases without a preceding Collect";
  PhaseView& view = *view_;
  const int n = sim_.num_nodes();
  // A child needs the filter only if its subtree ever reported data.
  for (sim::NodeId c = 0; c < n; ++c) {
    view.sent_attrs[c] = !subtree_counts_[c].empty() || last_valid_[c];
  }
  // Prune sets are built lazily, only for the nodes the filter reaches. The
  // root forwards unpruned: the filter is a subset of the collected set, so
  // intersecting the two would change nothing.
  const sim::NodeId root = view.tree.root();
  view.prune_set = [this, root, scratch = codec_->EmptySet()](
                       sim::NodeId u) mutable -> const PointSet* {
    if (u == root || !config_.use_selective_forwarding) return nullptr;
    scratch = SetView(subtree_counts_[u], *codec_);
    return StructureWireBytes(scratch, *codec_, config_.representation) <=
                   static_cast<size_t>(config_.filter_memory_bytes)
               ? &scratch
               : nullptr;
  };
  // A service epoch is exact or delivers nothing: a garbled filter or tuple
  // hop (CRC trailer off) fails the attempt instead of losing rows.
  const size_t corrupted = report->corrupted_deliveries;
  return DisseminateFilter(view, ladder, filter, report) &&
         ShipFinalTuples(view, ladder, report, candidates) &&
         report->corrupted_deliveries == corrupted;
}

}  // namespace sensjoin::join
