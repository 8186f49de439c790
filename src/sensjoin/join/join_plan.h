#ifndef SENSJOIN_JOIN_JOIN_PLAN_H_
#define SENSJOIN_JOIN_JOIN_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/constraint.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {

/// The plan of the base station's multi-way join, shared by its two value
/// domains: quantized cells under three-valued logic (the join filter, step
/// 1a) and full tuples (the exact result). Per nesting level it holds the
/// table, the predicates that complete there and the probe constraints that
/// restrict the level's candidates to a window of a sorted index. The two
/// domains differ in two inputs (DESIGN.md §5c):
///  - the probe-able attributes: the quantizer's dimensions (ForFilter) or
///    every schema attribute (ForExact);
///  - the table order. The filter is a set, so ForFilter orders greedily:
///    the table in the most join predicates first, then at each slot the
///    table with the most probe constraints against the placed ones. Exact
///    rows and aggregate sums depend on order, so ForExact keeps FROM order.
///
/// Borrows the query's predicate trees; must not outlive the AnalyzedQuery.
class JoinPlan {
 public:
  static JoinPlan ForFilter(const query::AnalyzedQuery& q,
                            const JoinAttrCodec& codec);
  static JoinPlan ForExact(const query::AnalyzedQuery& q);

  struct Probe {
    query::ProbeConstraint constraint;
    int slot;  ///< quantizer dimension (filter) or schema attribute (exact)
  };

  struct Level {
    int table;  ///< FROM index assigned at this level
    /// Predicates whose last table in plan order is this level's, in query
    /// order.
    std::vector<const query::Expr*> preds;
    std::vector<query::CompiledPredicate> compiled;  ///< parallel to preds
    std::vector<Probe> probes;
  };

  const std::vector<Level>& levels() const { return levels_; }
  int num_constraints() const { return num_constraints_; }

 private:
  /// `slot_of_attr[a]` is attribute a's index slot, or -1 if a cannot be
  /// probed. `greedy` selects the greedy table order instead of FROM order.
  JoinPlan(const query::AnalyzedQuery& q, const std::vector<int>& slot_of_attr,
           bool greedy);

  std::vector<Level> levels_;
  int num_constraints_ = 0;
};

/// The base station's one join enumerator: a depth-first walk over the
/// plan's levels that calls `on_match(rows)` for every combination passing
/// all predicates, where rows[l] is the row assigned at level l. At each
/// level it takes the candidates — the table's candidate list, or, when the
/// level has probes, the hits of the narrowest probe window filtered by the
/// other windows — lets the domain admit each one, and recurses.
///
/// `Domain` supplies the rows, the predicate test and the probe windows:
///   using Coord;                         index coordinate type
///   static constexpr bool kCandidateOrder;
///       visit probe hits in ascending row order (= candidate-list order),
///       else in index order (cheaper when the output is a set)
///   const std::vector<uint32_t>& Candidates(int table);  ascending rows
///   bool Admit(size_t level, const JoinPlan::Level&, uint32_t row);
///       assigns `row` to the level's table and runs the level's predicates;
///       may also refuse rows outside a pool (ComputeJoinFilterDelta's pivot)
///   bool Window(const JoinPlan::Probe&, Coord* lo, Coord* hi);
///       the probe's inclusive window under the assignment; false if empty
///   const std::vector<uint32_t>& Index(int table, int slot);
///       the table's rows sorted by CoordOf(table, row, slot), ties in row
///       order, leaving out rows no window can hold (NaN)
///   Coord CoordOf(int table, uint32_t row, int slot);
///
/// A window must hold the coordinate of every row the predicates accept;
/// rows inside it are re-evaluated against the full predicates, so a wider
/// window costs time but never changes the output.
template <typename Domain, typename OnMatch>
void EnumerateJoin(const JoinPlan& plan, Domain& domain, OnMatch&& on_match) {
  using Coord = typename Domain::Coord;
  struct Window {
    int slot;
    Coord lo;
    Coord hi;
  };
  const std::vector<JoinPlan::Level>& levels = plan.levels();
  const size_t depth = levels.size();
  std::vector<uint32_t> rows(depth, 0);
  std::vector<std::vector<Window>> windows(depth);
  std::vector<std::vector<uint32_t>> picked_rows(depth);

  auto descend = [&](auto&& self, size_t li) -> void {
    if (li == depth) {
      on_match(rows);
      return;
    }
    const JoinPlan::Level& level = levels[li];
    const int t = level.table;
    auto visit = [&](uint32_t row) {
      if (!domain.Admit(li, level, row)) return;
      rows[li] = row;
      self(self, li + 1);
    };
    if (level.probes.empty()) {
      for (uint32_t row : domain.Candidates(t)) visit(row);
      return;
    }

    // One window per probe; a row must lie inside all of them.
    std::vector<Window>& wins = windows[li];
    wins.clear();
    for (const JoinPlan::Probe& probe : level.probes) {
      Window w{probe.slot, Coord{}, Coord{}};
      if (!domain.Window(probe, &w.lo, &w.hi)) return;
      wins.push_back(w);
    }

    // Probe the narrowest window's index; the other windows filter by a
    // plain coordinate compare.
    size_t best = 0;
    std::span<const uint32_t> hits;
    for (size_t w = 0; w < wins.size(); ++w) {
      const Window& win = wins[w];
      auto coord = [&](uint32_t r) { return domain.CoordOf(t, r, win.slot); };
      const std::vector<uint32_t>& index = domain.Index(t, win.slot);
      const auto lo = std::ranges::lower_bound(index, win.lo, {}, coord);
      const auto hi =
          std::ranges::upper_bound(lo, index.end(), win.hi, {}, coord);
      if (w == 0 || hi - lo < std::ssize(hits)) {
        best = w;
        hits = {lo, hi};
      }
    }
    auto inside = [&](uint32_t row) {
      for (size_t w = 0; w < wins.size(); ++w) {
        if (w == best) continue;
        const Coord c = domain.CoordOf(t, row, wins[w].slot);
        if (c < wins[w].lo || c > wins[w].hi) return false;
      }
      return true;
    };
    std::vector<uint32_t>& picked = picked_rows[li];
    picked.clear();
    for (uint32_t row : hits) {
      if (inside(row)) picked.push_back(row);
    }
    if constexpr (Domain::kCandidateOrder) {
      std::sort(picked.begin(), picked.end());
    }
    for (uint32_t row : picked) visit(row);
  };
  descend(descend, 0);
}

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_JOIN_PLAN_H_
