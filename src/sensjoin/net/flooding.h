#ifndef SENSJOIN_NET_FLOODING_H_
#define SENSJOIN_NET_FLOODING_H_

#include <cstddef>
#include <vector>

#include "sensjoin/sim/simulator.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::net {

/// Simple flooding of a payload of `payload_bytes` from `root`, accounted
/// under `kind`: every node rebroadcasts once on its first receipt and
/// stays quiet on further ones. Each call is a flood of its own; no
/// suppression memory carries over from an earlier call. Returns one flag
/// per node, 1 where the payload arrived (`root` included). Query floods
/// (kQuery) are the protocol's dissemination phase (Sec. III "Query
/// Processing") and get a trace span of their own.
std::vector<char> Flood(sim::Simulator& sim, sim::NodeId root,
                        size_t payload_bytes, sim::MessageKind kind);

}  // namespace sensjoin::net

#endif  // SENSJOIN_NET_FLOODING_H_
