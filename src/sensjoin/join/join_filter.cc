#include "sensjoin/join/join_filter.h"

#include <algorithm>
#include <limits>
#include <map>
#include <ranges>
#include <utility>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/join_plan.h"
#include "sensjoin/query/interval_eval.h"

namespace sensjoin::join {
namespace {

/// Maps a conservative allowed interval of raw values to the inclusive
/// coordinate range of quantization cells whose intervals intersect it,
/// widened by one cell on each side: the inverse constraint arithmetic and
/// the forward predicate evaluation round independently, and a full cell of
/// slack (orders of magnitude above ulp-level disagreement) keeps the window
/// a superset of what the predicates accept. Returns false when the range is
/// empty (the predicate is certainly false for every cell).
bool CellRange(const Quantizer& quant, int dim, query::Interval allowed,
               uint32_t* lo_out, uint32_t* hi_out) {
  if (!(allowed.lo <= allowed.hi)) return false;  // AllowedRange has no NaN
  // Cell 0 extends to -inf and the top cell to +inf, so `first` (the first
  // cell reaching allowed.lo) and `last` (the last cell starting at or below
  // allowed.hi) both land inside [0, size).
  const uint32_t size = quant.size_of_dim(dim);
  const auto below = std::views::iota(uint32_t{0}, size - 1);
  const uint32_t first = static_cast<uint32_t>(
      std::ranges::partition_point(below, [&](uint32_t c) {
        return quant.CellInterval(dim, c).hi < allowed.lo;
      }) - below.begin());
  const auto above = std::views::iota(uint32_t{1}, size);
  const uint32_t last = static_cast<uint32_t>(
      std::ranges::partition_point(above, [&](uint32_t c) {
        return quant.CellInterval(dim, c).lo <= allowed.hi;
      }) - above.begin());
  if (first > last) return false;
  *lo_out = first > 0 ? first - 1 : 0;
  *hi_out = last < size - 1 ? last + 1 : size - 1;
  return true;
}

/// EnumerateJoin's domain over the collected keys (see join_plan.h): a row
/// is a key's position in the collected set, its values are its cell
/// intervals (only the quantizer's attributes are set; join predicates
/// reference only those), and predicates run compiled under three-valued
/// logic, keeping everything not certainly false.
class FilterDomain : public query::IntervalContext {
 public:
  using Coord = uint32_t;
  static constexpr bool kCandidateOrder = false;  // the filter is a set

  FilterDomain(const query::AnalyzedQuery& q, const JoinAttrCodec& codec,
               const std::vector<uint64_t>& keys,
               const std::vector<char>* is_added, FilterJoinResult* result)
      : quant_(codec.quantizer()),
        num_attrs_(q.schema().num_attributes()),
        rel_bits_(TableRelationBits(q)),
        flagged_(codec.flag_bits() != 0),
        result_(result),
        rows_(keys.size() * num_attrs_),
        coords_(keys.size() * quant_.num_dims()),
        eligible_(q.num_tables()),
        assignment_(q.num_tables(), nullptr),
        is_added_(is_added) {
    SENSJOIN_CHECK(keys.size() < std::numeric_limits<uint32_t>::max());
    for (uint32_t k = 0; k < keys.size(); ++k) {
      const std::vector<uint32_t> cell = codec.KeyCoordinates(keys[k]);
      for (int d = 0; d < quant_.num_dims(); ++d) {
        coords_[size_t{k} * quant_.num_dims() + d] = cell[d];
        rows_[size_t{k} * num_attrs_ + quant_.dim(d).attr_index] =
            quant_.CellInterval(d, cell[d]);
      }
      for (int t = 0; t < q.num_tables(); ++t) {
        if (!flagged_ || ((codec.KeyFlags(keys[k]) >> rel_bits_[t]) & 1)) {
          eligible_[t].push_back(k);
        }
      }
    }
  }

  /// With `is_added`, Admit passes only the combinations whose first added
  /// key sits at plan level `pivot`: levels before it take old keys, the
  /// pivot added keys, later levels any key.
  size_t pivot = 0;

  query::Interval Value(int table, int attr) const override {
    return assignment_[table][attr];
  }
  const std::vector<uint32_t>& Candidates(int t) const { return eligible_[t]; }
  bool Admit(size_t level, const JoinPlan::Level& lv, uint32_t row) {
    if (is_added_ != nullptr && level <= pivot &&
        ((*is_added_)[row] != 0) != (level == pivot)) {
      return false;
    }
    assignment_[lv.table] = &rows_[size_t{row} * num_attrs_];
    for (const query::CompiledPredicate& pred : lv.compiled) {
      ++result_->combinations_evaluated;
      if (pred.Eval(assignment_.data()) == query::Tri::kFalse) return false;
    }
    return true;
  }
  bool Window(const JoinPlan::Probe& probe, uint32_t* lo, uint32_t* hi) {
    ++result_->index_probes;
    return CellRange(quant_, probe.slot, probe.constraint.AllowedRange(*this),
                     lo, hi);
  }
  /// Tables of one relation share their eligible keys, so indexes are
  /// cached per (relation bit, dimension).
  const std::vector<uint32_t>& Index(int t, int dim) {
    auto [it, added] = indexes_.try_emplace({flagged_ ? rel_bits_[t] : 0, dim});
    if (added) {
      it->second = eligible_[t];
      std::ranges::stable_sort(it->second, {}, [&](uint32_t k) {
        return CoordOf(t, k, dim);
      });
    }
    return it->second;
  }
  uint32_t CoordOf(int, uint32_t row, int dim) const {
    return coords_[size_t{row} * quant_.num_dims() + dim];
  }

 private:
  const Quantizer& quant_;
  const int num_attrs_;
  const std::vector<int> rel_bits_;
  const bool flagged_;
  FilterJoinResult* result_;
  std::vector<query::Interval> rows_;
  std::vector<uint32_t> coords_;
  std::vector<std::vector<uint32_t>> eligible_;
  std::vector<const query::Interval*> assignment_;
  std::map<std::pair<int, int>, std::vector<uint32_t>> indexes_;
  const std::vector<char>* const is_added_;
};

}  // namespace

std::vector<int> TableRelationBits(const query::AnalyzedQuery& q) {
  const std::vector<std::string> names = q.RelationNames();
  std::vector<int> bits(q.num_tables(), -1);
  for (int t = 0; t < q.num_tables(); ++t) {
    for (size_t r = 0; r < names.size(); ++r) {
      if (names[r] == q.table(t).relation) {
        bits[t] = static_cast<int>(r);
        break;
      }
    }
    SENSJOIN_CHECK_GE(bits[t], 0);
  }
  return bits;
}

FilterJoinResult ComputeJoinFilter(const query::AnalyzedQuery& q,
                                   const JoinAttrCodec& codec,
                                   const PointSet& collected) {
  // The full join is the delta from an empty set with every key added.
  return ComputeJoinFilterDelta(q, codec, collected, codec.EmptySet(),
                                collected.keys());
}

FilterJoinResult ComputeJoinFilterDelta(const query::AnalyzedQuery& q,
                                        const JoinAttrCodec& codec,
                                        const PointSet& collected,
                                        const PointSet& previous,
                                        const std::vector<uint64_t>& added) {
  const std::vector<uint64_t>& keys = collected.keys();
  // Flags by key position; left empty when every key is added.
  std::vector<char> is_added;
  if (added.size() < keys.size()) {
    is_added.assign(keys.size(), 0);
    for (uint64_t key : added) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      SENSJOIN_CHECK(it != keys.end() && *it == key)
          << "added key missing from the collected set";
      is_added[static_cast<size_t>(it - keys.begin())] = 1;
    }
  }
  FilterJoinResult result(codec.EmptySet());
  FilterDomain domain(q, codec, keys, is_added.empty() ? nullptr : &is_added,
                      &result);
  const JoinPlan plan = JoinPlan::ForFilter(q, codec);
  std::vector<char> matched(keys.size(), 0);
  auto mark = [&](const std::vector<uint32_t>& rows) {
    ++result.combinations_matched;
    for (uint32_t k : rows) matched[k] = 1;
  };
  // Partition the combinations touching an added key by the plan level of
  // their first added key (the pivot). All-old combinations were settled by
  // the previous epoch; with every key added, only pivot 0 has any.
  const size_t pivots = is_added.empty() ? 1 : plan.levels().size();
  for (domain.pivot = 0; domain.pivot < pivots; ++domain.pivot) {
    EnumerateJoin(plan, domain, mark);
  }
  std::vector<uint64_t> filter_keys = previous.keys();
  for (size_t k = 0; k < keys.size(); ++k) {
    if (matched[k]) filter_keys.push_back(keys[k]);
  }
  result.filter = PointSet::FromKeys(codec.layout(), std::move(filter_keys));
  return result;
}

const FilterJoinResult& IncrementalJoinFilter::Update(
    const query::AnalyzedQuery& q, const JoinAttrCodec& codec,
    const PointSet& collected, const std::vector<uint64_t>& added,
    const std::vector<uint64_t>& removed) {
  if (valid_) {
    const bool removal_safe =
        std::none_of(removed.begin(), removed.end(), [this](uint64_t key) {
          return last_->filter.Contains(key);
        });
    if (removal_safe && added.empty()) {
      // Every filter member still matches its witnessing combination, and
      // no combination gained a participant: the filter is unchanged.
      ++reuses_;
      return *last_;
    }
    if (removal_safe && added.size() < collected.size()) {
      ++incremental_updates_;
      last_ =
          ComputeJoinFilterDelta(q, codec, collected, last_->filter, added);
      return *last_;
    }
    // A removed key was in the filter (its partners may have lost their
    // only witness) or the delta dominates the set: recompute.
  }
  ++full_recomputes_;
  last_ = ComputeJoinFilter(q, codec, collected);
  valid_ = true;
  return *last_;
}

}  // namespace sensjoin::join
