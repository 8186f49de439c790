#include "sensjoin/join/external_join.h"

#include <iterator>
#include <utility>
#include <vector>

#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/obs/trace.h"

namespace sensjoin::join {

ExternalJoinExecutor::ExternalJoinExecutor(sim::Simulator& sim,
                                           net::RoutingTree tree,
                                           const data::NetworkData& data,
                                           ProtocolConfig config)
    : sim_(sim), tree_(std::move(tree)), data_(data), config_(config) {}

StatusOr<ExecutionReport> ExternalJoinExecutor::Execute(
    const query::AnalyzedQuery& q, uint64_t epoch) {
  // The external join ships complete tuples only and never re-requests a
  // lost hop: its recovery budget is zero. The attempt span encloses the
  // abort-and-drain, so a failed attempt's in-flight tail is attributed to
  // the collection.
  return RunAttempts(
      sim_, tree_, config_, /*recovery_budget=*/0,
      obs::Phase::kExternalCollection,
      "external join failed after retries (network partitioned?)",
      [&](FaultLadder& ladder, ExecutionReport* report) -> StatusOr<bool> {
        return ExecuteAttempt(q, epoch, ladder, report);
      });
}

bool ExternalJoinExecutor::ExecuteAttempt(const query::AnalyzedQuery& q,
                                          uint64_t epoch, FaultLadder& ladder,
                                          ExecutionReport* report) {
  const ExecutorContext ctx(data_, q, epoch);
  const int n = sim_.num_nodes();
  const sim::NodeId root = tree_.root();
  // Tuples waiting at each node to be forwarded upward.
  std::vector<std::vector<data::Tuple>> pending(n);
  std::vector<data::Tuple> base_candidates;
  ladder.ArmWatchdog();

  // Collection-turn flags: repairs mutate the tree mid-phase, so the
  // traversal iterates an order snapshot and rescued contributions are
  // relayed through already-processed nodes.
  std::vector<char> done(n, 0);

  const std::vector<sim::NodeId> order = tree_.collection_order();
  for (sim::NodeId u : order) {
    done[u] = 1;
    std::vector<data::Tuple> contribution = std::move(pending[u]);
    if (ctx.info(u).has_tuple) contribution.push_back(ctx.info(u).tuple);
    if (u == root) {
      base_candidates = std::move(contribution);
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
    if (!ladder.Send(msg, &corrupted)) {
      if (!ladder.RescueTuples(u, std::move(contribution), payload,
                               obs::Phase::kExternalCollection, done,
                               pending)) {
        return false;
      }
      continue;
    }
    if (corrupted) {
      // With the CRC trailer off, garbled tuples slip through the link
      // layer but are unusable: the subtree's rows are lost.
      ++report->corrupted_deliveries;
      continue;
    }
    std::vector<data::Tuple>& up = pending[tree_.parent(u)];
    up.insert(up.end(), std::make_move_iterator(contribution.begin()),
              std::make_move_iterator(contribution.end()));
  }

  report->candidate_tuples = base_candidates.size();
  report->result = ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));
  return true;
}

}  // namespace sensjoin::join
