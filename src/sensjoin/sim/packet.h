#ifndef SENSJOIN_SIM_PACKET_H_
#define SENSJOIN_SIM_PACKET_H_

#include <any>
#include <cstddef>
#include <cstdint>

#include "sensjoin/sim/time.h"

namespace sensjoin::sim {

/// Classifies messages for per-phase cost accounting. The paper's metric
/// (Sec. VI) counts query-processing transmissions; tree maintenance
/// (kBeacon) and query dissemination (kQuery) are tracked separately because
/// they are identical for every join method under comparison.
enum class MessageKind : uint8_t {
  kBeacon = 0,  ///< Routing-tree maintenance (CTP-style beaconing).
  kQuery,       ///< Query dissemination flood.
  kCollection,  ///< SENS-Join step 1a (join-attribute tuples upward,
                ///< including Treecut full-tuple sends).
  kFilter,      ///< SENS-Join step 1b: join filter downward.
  kFinal,       ///< Final-result tuples upward; also the external join's
                ///< single collection phase.
  kAppData,     ///< Application payloads outside the join protocols.
  kControl,     ///< Recovery control traffic (re-requests / NACKs).
  kRepair,      ///< In-network tree repair (requests, replies, re-attach
                ///< notices; net/tree_maintenance.h).
  kNumKinds,    ///< Sentinel; keep last.
};

/// Transmissions attributable to executing a join query (excludes tree
/// maintenance and query dissemination, which are identical for all join
/// methods; Sec. VI "Metric").
inline bool IsJoinProcessingKind(MessageKind kind) {
  return kind == MessageKind::kCollection || kind == MessageKind::kFilter ||
         kind == MessageKind::kFinal;
}

/// Returns a short name for `kind` ("beacon", "join_attrs", ...).
const char* MessageKindName(MessageKind kind);

/// Sentinel attempt id of an untagged message (legacy senders, beacons,
/// floods): the delivery-validation layer passes such messages through
/// without sequence checks.
inline constexpr uint32_t kUntaggedAttempt = 0xFFFFFFFFu;

/// Exactly-once delivery tag. Protocol layers stamp every logical message
/// with the executor attempt that originated it plus a per-(src,dst)-link
/// sequence number; receive paths use the tag to drop duplicates, reject
/// stale-attempt traffic and detect reordering. The tag is carried
/// in-memory and never charged on the wire, so tagging leaves frame sizes
/// bit-identical to the seed.
struct DeliveryTag {
  uint32_t attempt_id = kUntaggedAttempt;
  uint32_t seq = 0;

  bool tagged() const { return attempt_id != kUntaggedAttempt; }
};

/// A logical message handed to the radio. The radio fragments it into
/// link-layer packets for accounting; `content` carries the typed in-memory
/// payload (the simulator never serializes application objects, it only
/// accounts for their declared wire size).
struct Message {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;  ///< kInvalidNode for local broadcast.
  MessageKind kind = MessageKind::kAppData;
  size_t payload_bytes = 0;  ///< Wire size of the payload, pre-fragmentation.
  DeliveryTag tag;           ///< Exactly-once tag (untagged by default).
  std::any content;
};

/// Link-layer framing parameters. The paper uses a maximum packet size of
/// 48 bytes (Sec. VI, "Metric") and discusses 124 bytes; the header models
/// the fixed per-packet MAC/addressing overhead.
struct PacketizationParams {
  int max_packet_bytes = 48;
  int header_bytes = 8;

  /// Usable payload bytes per link-layer packet.
  int payload_capacity() const { return max_packet_bytes - header_bytes; }
};

/// Number of link-layer packets needed to carry `payload_bytes` of payload.
/// A zero-byte payload (pure signal) still costs one packet.
int NumFragments(size_t payload_bytes, const PacketizationParams& params);

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_PACKET_H_
