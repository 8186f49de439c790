#ifndef SENSJOIN_JOIN_PHASES_H_
#define SENSJOIN_JOIN_PHASES_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sensjoin/common/bit_stream.h"
#include "sensjoin/common/statusor.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/join/execution_report.h"
#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/join/protocol.h"
#include "sensjoin/net/routing_tree.h"
#include "sensjoin/obs/trace.h"
#include "sensjoin/sim/simulator.h"

namespace sensjoin::join {

/// Appends the complete tuples node `u` itself ships in a convergecast (its
/// own, or its filtered own and proxy tuples) to `out`.
using TupleSelection =
    std::function<void(sim::NodeId u, std::vector<data::Tuple>* out)>;

/// The tuple convergecast of every phase that ships complete tuples to the
/// base station: in the ladder tree's collection order, each node sends
/// what `select` appends for it, merged with its children's contributions,
/// to its parent (kFinal, payload = summed `full_tuple_bytes`) through
/// FaultLadder::Send. A failed hop escalates through RescueTuples (repair
/// parents must pass `parent_ok`); a garbled hop loses its rows. Appends
/// what reaches the root to `at_root`. Opens no trace span and does not
/// drain the event queue: callers keep their phase boundaries. False =
/// abort.
bool ConvergecastTuples(FaultLadder& ladder, const ExecutorContext& ctx,
                        obs::Phase phase, const TupleSelection& select,
                        ExecutionReport* report,
                        std::vector<data::Tuple>* at_root,
                        const FaultLadder::ParentAcceptable& parent_ok = {});

/// What SENS-Join's phases 1b (Filter-Dissemination) and 2
/// (Final-Result-Computation) know about every node after a collection.
/// One-shot SENS-Join fills it during its Treecut collection; the
/// continuous delta executor derives it from its multisets. References
/// must outlive the view; `config` supplies the wire format and the ladder
/// switches the phases read, which must match the attempt's FaultLadder.
struct PhaseView {
  sim::Simulator& sim;
  const net::RoutingTree& tree;
  const ExecutorContext& ctx;  ///< the epoch's tuples and their wire sizes
  const JoinAttrCodec& codec;
  const ProtocolConfig& config;

  // Per node, indexed by NodeId.
  /// Reported upward: a phase-1b target.
  std::vector<char> sent_attrs = std::vector<char>(sim.num_nodes(), 0);
  /// Own join-attribute key (where ctx has a tuple; EncodeKeys).
  std::vector<uint64_t> key = std::vector<uint64_t>(sim.num_nodes(), 0);
  /// Finished via Treecut.
  std::vector<char> exited = std::vector<char>(sim.num_nodes(), 0);
  /// Complete tuples stored as a Treecut proxy.
  std::vector<std::vector<data::Tuple>> proxy_tuples =
      std::vector<std::vector<data::Tuple>>(sim.num_nodes());
  /// The filter received in phase 1b.
  std::vector<std::optional<PointSet>> filter =
      std::vector<std::optional<PointSet>>(sim.num_nodes());

  /// Selective Filter Forwarding prune set of `u` (its subtree's keys), or
  /// nullptr to forward unpruned. Called for nodes holding a filter and
  /// having targets; the pointer need only live until the next call.
  std::function<const PointSet*(sim::NodeId u)> prune_set = {};

  BitWriter wire_scratch = {};  ///< VerifyWire's encoding buffer

  /// Fills `key` for every node with a tuple, over join attributes `dims`.
  void EncodeKeys(const std::vector<int>& dims);

  /// config.verify_wire_roundtrip (quadtree only): `set` must survive a
  /// serialize/parse roundtrip through the Fig. 9 wire format.
  void VerifyWire(const PointSet& set);

  /// An undetected-corrupt delivery of `sent` (CRC trailer off): counted,
  /// damaged on the quadtree encoding and run through the hardened
  /// decoder. A parseable result is used as-is (wrong but safe); an error
  /// means the receiver discards it, as for representations without a
  /// bit-level wire model.
  StatusOr<PointSet> ReceiveDamaged(const PointSet& sent,
                                    ExecutionReport* report);
};

/// Phase 1b (Fig. 3): disseminates `root_filter` down the tree, pruned at
/// each node by its prune set, into `view.filter`. A target that missed
/// its parent's broadcast gets a unicast resend through the ladder; one
/// that cannot be reached degrades with its subtree (no repair: a pruned
/// filter cannot be widened locally for a new path). False = abort.
bool DisseminateFilter(PhaseView& view, FaultLadder& ladder,
                       const PointSet& root_filter, ExecutionReport* report);

/// Phase 2: every node holding a filter ships its own and its proxy tuples
/// whose keys are in it, through ConvergecastTuples. Appends what reaches
/// the base station to `candidates`. False = abort.
bool ShipFinalTuples(PhaseView& view, FaultLadder& ladder,
                     ExecutionReport* report,
                     std::vector<data::Tuple>* candidates);

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_PHASES_H_
