#include "sensjoin/net/flooding.h"

#include <optional>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::net {

std::vector<char> Flood(sim::Simulator& sim, sim::NodeId root,
                        size_t payload_bytes, sim::MessageKind kind) {
  const int n = sim.num_nodes();
  SENSJOIN_CHECK(root >= 0 && root < n);
  // Query floods are a protocol phase of their own on the trace timeline;
  // other flood kinds (app-level data) stay unattributed.
  std::optional<obs::ScopedPhase> span;
  if (kind == sim::MessageKind::kQuery) {
    span.emplace(sim.tracer(), sim.events(), obs::Phase::kQueryDissemination);
  }
  // A node that heard the payload has also forwarded it.
  std::vector<char> reached(n, 0);
  reached[root] = 1;

  auto rebroadcast = [&sim, payload_bytes, kind](sim::NodeId who) {
    sim::Message msg;
    msg.src = who;
    msg.kind = kind;
    msg.payload_bytes = payload_bytes;
    sim.Broadcast(std::move(msg));
  };

  auto previous = sim.SetReceiveHandler(
      [&](sim::NodeId receiver, const sim::Message& msg) {
        if (msg.kind != kind || reached[receiver]) return;
        reached[receiver] = 1;
        rebroadcast(receiver);
      });

  rebroadcast(root);
  sim.events().Run();
  sim.SetReceiveHandler(std::move(previous));
  return reached;
}

}  // namespace sensjoin::net
