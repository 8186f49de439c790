#include "sensjoin/join/join_plan.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {

JoinPlan JoinPlan::ForFilter(const query::AnalyzedQuery& q,
                             const JoinAttrCodec& codec) {
  const Quantizer& quant = codec.quantizer();
  std::vector<int> slot_of_attr(q.schema().num_attributes(), -1);
  for (int d = 0; d < quant.num_dims(); ++d) {
    slot_of_attr[quant.dim(d).attr_index] = d;
  }
  return JoinPlan(q, slot_of_attr, /*greedy=*/true);
}

JoinPlan JoinPlan::ForExact(const query::AnalyzedQuery& q) {
  std::vector<int> slot_of_attr(q.schema().num_attributes());
  std::iota(slot_of_attr.begin(), slot_of_attr.end(), 0);
  return JoinPlan(q, slot_of_attr, /*greedy=*/false);
}

JoinPlan::JoinPlan(const query::AnalyzedQuery& q,
                   const std::vector<int>& slot_of_attr, bool greedy) {
  const int num_tables = q.num_tables();
  const auto& preds = q.join_predicates();
  const int num_preds = static_cast<int>(preds.size());
  std::vector<std::set<int>> pred_tables(num_preds);
  // ext[p][t]: probe constraints of predicate p with table t as the probe,
  // restricted to probe-able attributes.
  std::vector<std::vector<std::vector<Probe>>> ext(
      num_preds, std::vector<std::vector<Probe>>(num_tables));
  std::vector<int> pred_count(num_tables, 0);
  for (int p = 0; p < num_preds; ++p) {
    preds[p]->CollectTableIndices(&pred_tables[p]);
    SENSJOIN_CHECK(!pred_tables[p].empty());
    for (int t : pred_tables[p]) {
      ++pred_count[t];
      for (query::ProbeConstraint& c :
           query::ProbeConstraint::Extract(*preds[p], t)) {
        const int slot = slot_of_attr[c.attr_index()];
        if (slot >= 0) ext[p][t].push_back(Probe{std::move(c), slot});
      }
    }
  }

  std::vector<bool> placed(num_tables, false);
  std::vector<bool> scheduled(num_preds, false);
  // True iff every table of predicate p other than t is placed.
  auto complete = [&](int p, int t) {
    return std::all_of(pred_tables[p].begin(), pred_tables[p].end(),
                       [&](int other) { return other == t || placed[other]; });
  };
  for (int slot = 0; slot < num_tables; ++slot) {
    int best = slot;
    if (greedy) {
      // Most probe constraints against the placed tables, then most
      // predicates; the first table wins ties.
      std::pair<size_t, int> best_score;
      best = -1;
      for (int t = 0; t < num_tables; ++t) {
        if (placed[t]) continue;
        std::pair<size_t, int> score{0, pred_count[t]};
        for (int p = 0; slot > 0 && p < num_preds; ++p) {
          if (!scheduled[p] && pred_tables[p].count(t) && complete(p, t)) {
            score.first += ext[p][t].size();
          }
        }
        if (best < 0 || score > best_score) {
          best = t;
          best_score = score;
        }
      }
    }
    placed[best] = true;

    Level level{best, {}, {}, {}};
    for (int p = 0; p < num_preds; ++p) {
      if (scheduled[p] || !complete(p, -1)) continue;
      scheduled[p] = true;
      level.preds.push_back(preds[p].get());
      level.compiled.push_back(query::CompiledPredicate::Compile(*preds[p]));
      // A predicate completing at this level necessarily references this
      // level's table, so its probe extraction targets `best`.
      for (Probe& probe : ext[p][best]) {
        level.probes.push_back(std::move(probe));
        ++num_constraints_;
      }
    }
    levels_.push_back(std::move(level));
  }
}

}  // namespace sensjoin::join
