#ifndef SENSJOIN_JOIN_PROTOCOL_H_
#define SENSJOIN_JOIN_PROTOCOL_H_

#include <cstdint>

namespace sensjoin::join {

/// How join-attribute tuples are represented on the wire during the
/// pre-computation (Sec. V and the Sec. VI-B comparison).
enum class JoinAttrRepresentation {
  kQuadtree,   ///< the paper's compact quadtree encoding (default)
  kRaw,        ///< plain quantized tuples, two bytes per attribute
               ///< (the SENS_No-Quad variant of Fig. 16)
  kZlibLike,   ///< raw serialization compressed with the LZ77+Huffman codec
  kBzip2Like,  ///< raw serialization compressed with the BWT codec
};

const char* JoinAttrRepresentationName(JoinAttrRepresentation r);

/// Tunables of the SENS-Join protocol. Defaults are the paper's settings.
struct ProtocolConfig {
  /// Treecut threshold Dmax (Sec. IV-B): while the data volume to send is
  /// below this, nodes ship complete tuples instead of join-attribute
  /// tuples. Must stay below the packet payload capacity.
  int dmax_bytes = 30;

  /// Memory budget for Selective Filter Forwarding (Sec. IV-C): a node
  /// keeps its subtree's join-attribute structure only if it fits.
  int filter_memory_bytes = 500;

  /// Ablation switches (both on in the paper's design).
  bool use_treecut = true;
  bool use_selective_forwarding = true;

  JoinAttrRepresentation representation = JoinAttrRepresentation::kQuadtree;

  /// Re-executions after a link failure breaks an execution (Sec. IV-F).
  /// SENS-Join and the continuous service first re-request a transiently
  /// lost hop in place (phase-level recovery, kMaxRecoveryRequests rounds
  /// per hop; join/fault_ladder.h); re-execution is the fallback.
  int max_retries = 3;

  /// Simulated wait before a full re-execution (CTP repair time). Advanced
  /// on the event queue, so crash/recover events scheduled in the fault
  /// plan can fire between attempts. 0 keeps the seed's instant-retry
  /// behavior.
  double retry_backoff_s = 0.0;

  /// Debug/fidelity mode: in the quadtree representation, every structure
  /// handed to the radio is actually serialized to its wire bits and parsed
  /// back, and the roundtrip is checked fatally. Proves the Fig. 9 format
  /// is complete for everything the protocol ships (tests enable this).
  bool verify_wire_roundtrip = false;

  /// Self-healing (off by default: fault-free runs stay bit-identical to
  /// the seed). One switch turns on the three rungs of the fault ladder
  /// above phase-level recovery (join/fault_ladder.h):
  ///  - in-network tree repair (net/tree_maintenance.h): when a hop send
  ///    dies persistently (dead parent or dark link past the ARQ budget),
  ///    the stranded node re-attaches its subtree under a live neighbor and
  ///    the execution continues, instead of escalating straight to a full
  ///    re-execution with a tree rebuild;
  ///  - phase watchdogs: each protocol phase gets a sim-time budget of
  ///    `watchdog_base_s + tree depth * per-packet latency *
  ///    watchdog_per_hop_factor`; once a phase overruns it (recovery loops,
  ///    repeated repairs), the executor stops repairing and degrades rather
  ///    than stalling unboundedly;
  ///  - graceful degradation: when even repair cannot restore connectivity
  ///    (and retries are exhausted or the watchdog expired), the execution
  ///    completes over the reachable field and returns a
  ///    CompletenessCertificate naming the excluded subtrees, instead of
  ///    failing.
  /// Off, the legacy abort/retry behavior is kept.
  bool self_healing = false;
  double watchdog_base_s = 1.0;
  double watchdog_per_hop_factor = 64.0;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_PROTOCOL_H_
