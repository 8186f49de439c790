#include "sensjoin/join/external_join.h"

#include <utility>
#include <vector>

#include "sensjoin/join/executor_context.h"
#include "sensjoin/join/fault_ladder.h"
#include "sensjoin/join/phases.h"
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
        const ExecutorContext ctx(data_, q, epoch);
        ladder.ArmWatchdog();
        std::vector<data::Tuple> base_candidates;
        if (!ConvergecastTuples(
                ladder, ctx, obs::Phase::kExternalCollection,
                [&ctx](sim::NodeId u, std::vector<data::Tuple>* out) {
                  if (ctx.info(u).has_tuple) out->push_back(ctx.info(u).tuple);
                },
                report, &base_candidates)) {
          return false;
        }
        report->candidate_tuples = base_candidates.size();
        report->result =
            ComputeExactJoin(q, ctx.PerTableCandidates(base_candidates));
        return true;
      });
}

}  // namespace sensjoin::join
