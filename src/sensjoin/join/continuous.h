#ifndef SENSJOIN_JOIN_CONTINUOUS_H_
#define SENSJOIN_JOIN_CONTINUOUS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "sensjoin/common/statusor.h"
#include "sensjoin/data/network_data.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/phases.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

/// Epoch-to-epoch delta execution engine for continuous SENS-Join: the
/// in-network half of the paper's stated follow-on work (Sec. VIII:
/// "we currently investigate if the filtering can be optimized for
/// continuous queries by exploiting temporal correlations").
///
/// Idea: across SAMPLE PERIOD executions, most quantized join-attribute
/// tuples do not change (sensor drift is slow relative to the quantization
/// resolution). The Join-Attribute-Collection step therefore ships only
/// *deltas*: each node reports its key only when it moved to a different
/// cell (as a removal + addition pair); inner nodes merge and forward the
/// deltas and update their stored subtree structures incrementally. The
/// base station maintains the collected multiset and reports the set-level
/// changes, so the caller can maintain its join filter incrementally too
/// (IncrementalJoinFilter in join_filter.h).
///
/// The engine is query-agnostic beyond the collection semantics: one
/// instance serves a whole *sharing group* of queries with identical
/// (relations, selections, join attributes) signatures — the service layer
/// (service/join_service.h) disseminates the union of the group's filters
/// through RunFinalPhases and splits the resulting candidates per query at
/// the station.
///
/// After the collection, the multisets supply the PhaseView (a child is a
/// target when its subtree ever reported data; a node prunes by its
/// descendant multiset within `filter_memory_bytes`) and phases 1b and 2
/// run through join/phases.h, like one-shot SENS-Join. There is no Treecut
/// (use_treecut and dmax_bytes are not read): kept continuously, its
/// frozen boundary re-ships drifting complete tuples every epoch, which
/// measured as a steady-state loss (DESIGN.md §6e). `config`'s fault knobs
/// must match the FaultLadder the phases run on.
///
/// Fault handling: every hop goes through the attempt's FaultLadder, so a
/// transiently lost hop is re-pulled in place. A persistent failure, or a
/// garbled delta, filter or tuple hop (CRC trailer off), fails the call;
/// the caller must Reset() the engine, rebuild the tree and re-run the
/// epoch, which bootstraps from scratch (every key is an addition). A
/// filter computed from the multiset is therefore never silently stale.
class DeltaGroupExecutor {
 public:
  DeltaGroupExecutor(sim::Simulator& sim, const data::NetworkData& data,
                     QuantizationConfig quantization, ProtocolConfig config);

  /// Outcome of one epoch's delta collection.
  struct CollectOutcome {
    /// This epoch ran as a full collection (first call or after Reset).
    bool bootstrap = false;
    size_t changed_nodes = 0;  ///< nodes whose reported key moved
    /// Set-level delta of the base station's collected key set this epoch:
    /// keys whose multiset count rose from zero / fell to zero.
    std::vector<uint64_t> added;
    std::vector<uint64_t> removed;
  };

  /// Senses `epoch` and runs the delta Join-Attribute-Collection over
  /// `tree` through `ladder`. The tree reference must stay valid until the
  /// matching RunFinalPhases call. `q` defines membership, selections and
  /// join attributes; for a sharing group pass the representative query
  /// (all members agree on these by signature). False = a hop failed and
  /// the distributed state is invalid (Reset and retry).
  StatusOr<bool> Collect(FaultLadder& ladder, const net::RoutingTree& tree,
                         const query::AnalyzedQuery& q, uint64_t epoch,
                         CollectOutcome* out);

  /// Phases 1b and 2 (join/phases.h) over the maintained subtree multisets:
  /// disseminates `filter` (for a sharing group: the union of the members'
  /// filters) and appends the complete tuples that reach the base station
  /// to `candidates`. Must follow a successful Collect of the same epoch.
  /// False = the attempt failed (Reset and retry).
  bool RunFinalPhases(FaultLadder& ladder, const PointSet& filter,
                      ExecutionReport* report,
                      std::vector<data::Tuple>* candidates);

  /// Set view of the maintained base-station multiset.
  PointSet CollectedSet() const;

  /// Valid after the first successful Collect (until Reset).
  const JoinAttrCodec* codec() const { return codec_.get(); }
  /// Epoch context of the last Collect (senses; valid until the next
  /// Collect or Reset).
  const ExecutorContext* context() const {
    return ctx_.has_value() ? &*ctx_ : nullptr;
  }

  /// Drops all distributed state; the next Collect bootstraps.
  void Reset();

 private:
  sim::Simulator& sim_;
  const data::NetworkData& data_;
  QuantizationConfig quantization_;
  ProtocolConfig config_;

  // ---- Persistent distributed state (valid while bootstrapped_) ---------
  bool bootstrapped_ = false;
  std::unique_ptr<JoinAttrCodec> codec_;
  /// Last key each node reported (valid flag alongside).
  std::vector<uint64_t> last_key_;
  std::vector<char> last_valid_;
  /// Per inner node: multiset of keys reported by its descendants.
  std::vector<std::map<uint64_t, int>> subtree_counts_;
  /// Base station: multiset of all reported keys.
  std::map<uint64_t, int> base_counts_;

  // ---- Epoch-scoped state (set by Collect) ------------------------------
  std::optional<ExecutorContext> ctx_;
  /// The epoch's phase view (own keys filled by Collect, the rest by
  /// RunFinalPhases); references ctx_ and codec_.
  std::optional<PhaseView> view_;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_CONTINUOUS_H_
