#ifndef SENSJOIN_JOIN_JOIN_FILTER_H_
#define SENSJOIN_JOIN_JOIN_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {

/// Output of the base station's pre-computation join (step 1a).
struct FilterJoinResult {
  /// The join filter: the subset of collected keys that participate in at
  /// least one (conservatively) matching combination. Nodes whose
  /// join-attribute tuple is in this set ship their complete tuple.
  PointSet filter;

  /// Predicate evaluations over (partial) key combinations.
  size_t combinations_evaluated = 0;
  /// Combinations that were not certainly false.
  size_t combinations_matched = 0;
  /// Probe windows computed (index range lookups).
  size_t index_probes = 0;

  explicit FilterJoinResult(PointSet f) : filter(std::move(f)) {}
};

/// Maps the FROM-list tables of `q` to relation bit indices (bit r of a
/// key's flags = membership in the r-th distinct relation of the query, in
/// FROM order).
std::vector<int> TableRelationBits(const query::AnalyzedQuery& q);

/// Joins the collected (quantized) join-attribute tuples at the base
/// station. Join predicates are evaluated over cell intervals with
/// three-valued logic; a combination is kept unless some predicate is
/// certainly false, so quantization can only add false positives, never
/// drop a real result tuple (footnote 2). A key is eligible for table t iff
/// its relation flags include t's relation. Levels the predicates allow are
/// probed through sorted key indexes (JoinPlan::ForFilter, join_plan.h).
FilterJoinResult ComputeJoinFilter(const query::AnalyzedQuery& q,
                                   const JoinAttrCodec& codec,
                                   const PointSet& collected);

/// Incrementally extends `previous` — the filter of the previous epoch's
/// collected set — to the filter of `collected`, where `added` is the
/// set-level difference collected_now \ collected_before.
///
/// Precondition (caller-checked): no key removed since the previous epoch
/// was in `previous`. A key outside the filter matched no combination, so
/// its removal cannot invalidate any other key's membership; every key of
/// `previous` therefore still matches, and new members can only come from
/// combinations touching at least one added key. The enumeration visits
/// exactly those (pivoting on the plan level of the first added key), so the
/// result is bit-identical to ComputeJoinFilter(q, codec, collected).filter
/// at a cost proportional to the added fraction.
FilterJoinResult ComputeJoinFilterDelta(const query::AnalyzedQuery& q,
                                        const JoinAttrCodec& codec,
                                        const PointSet& collected,
                                        const PointSet& previous,
                                        const std::vector<uint64_t>& added);

/// Epoch-to-epoch join-filter cache for continuous execution: picks the
/// cheapest sound maintenance path per epoch (reuse / delta join / full
/// recompute) from the set-level collection delta reported by
/// DeltaGroupExecutor. The produced filter is always bit-identical to a
/// from-scratch ComputeJoinFilter over the same collected set.
class IncrementalJoinFilter {
 public:
  /// Returns the filter for `collected`. `added`/`removed` describe the
  /// set-level change since the previous Update; they are ignored when the
  /// cache is empty (first call or after Reset), which forces a full
  /// computation.
  const FilterJoinResult& Update(const query::AnalyzedQuery& q,
                                 const JoinAttrCodec& codec,
                                 const PointSet& collected,
                                 const std::vector<uint64_t>& added,
                                 const std::vector<uint64_t>& removed);

  /// Drops the cache; the next Update recomputes from scratch.
  void Reset() { valid_ = false; }

  /// Last produced result (after the first Update).
  const FilterJoinResult& last() const { return *last_; }

  /// Maintenance-path counters (cumulative since construction).
  size_t reuses() const { return reuses_; }
  size_t incremental_updates() const { return incremental_updates_; }
  size_t full_recomputes() const { return full_recomputes_; }

 private:
  bool valid_ = false;
  /// Engaged after the first Update (PointSet has no null state, so the
  /// cache cannot be default-constructed).
  std::optional<FilterJoinResult> last_;
  size_t reuses_ = 0;
  size_t incremental_updates_ = 0;
  size_t full_recomputes_ = 0;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_JOIN_FILTER_H_
