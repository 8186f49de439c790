#ifndef SENSJOIN_JOIN_RESULT_H_
#define SENSJOIN_JOIN_RESULT_H_

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::join {

/// An append-only array of trivially copyable values, grown with realloc:
/// the allocator extends the block in place or moves it, so growth never
/// copies into a fresh buffer and new slots are never zero-filled. On a
/// rows-heavy exact join (BM_ComputeExactJoinRows) it is ~2.5x faster than
/// std::vector growth.
///
/// Copies share the block, counted by a reference count in front of it, so
/// a copy costs O(1) whatever the size; an Append to a shared block first
/// clones the block for the appending side alone. The count is atomic:
/// copies of one buffer may live on different threads.
template <class T>
class PodBuffer {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  PodBuffer() = default;
  PodBuffer(const PodBuffer& o) noexcept
      : block_(o.block_), size_(o.size_), capacity_(o.capacity_) {
    if (block_ != nullptr) Refs(block_).fetch_add(1, std::memory_order_relaxed);
  }
  PodBuffer(PodBuffer&& o) noexcept
      : block_(std::exchange(o.block_, nullptr)),
        size_(std::exchange(o.size_, 0)),
        capacity_(std::exchange(o.capacity_, 0)) {}
  PodBuffer& operator=(PodBuffer o) noexcept {
    std::swap(block_, o.block_);
    std::swap(size_, o.size_);
    std::swap(capacity_, o.capacity_);
    return *this;
  }
  ~PodBuffer() { Release(block_); }

  size_t size() const { return size_; }
  const T* data() const { return block_ != nullptr ? Items(block_) : nullptr; }

  void Append(std::span<const T> items) {
    if (items.empty()) return;
    if (capacity_ - size_ < items.size() || !Unique()) {
      Grow(std::max({size_ + items.size(), 2 * capacity_, size_t{16}}));
    }
    std::copy(items.begin(), items.end(), Items(block_) + size_);
    size_ += items.size();
  }

  /// Element-wise equality (NaN != NaN for floating point).
  friend bool operator==(const PodBuffer& a, const PodBuffer& b) {
    return std::equal(a.data(), a.data() + a.size(), b.data(),
                      b.data() + b.size());
  }

 private:
  /// The block: a Header, then the items.
  struct alignas(std::max_align_t) Header {
    size_t refs;  ///< buffers sharing the block; accessed atomically
  };
  static_assert(alignof(T) <= alignof(Header));

  static std::atomic_ref<size_t> Refs(void* block) {
    return std::atomic_ref<size_t>(static_cast<Header*>(block)->refs);
  }
  static T* Items(void* block) {
    return reinterpret_cast<T*>(static_cast<char*>(block) + sizeof(Header));
  }
  static void Release(void* block) {
    if (block != nullptr &&
        Refs(block).fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::free(block);
    }
  }

  /// True if no other buffer shares the block (vacuously without one).
  bool Unique() const {
    return block_ == nullptr ||
           Refs(block_).load(std::memory_order_acquire) == 1;
  }

  /// Makes the block this buffer's own, holding `capacity` >= size_ items.
  void Grow(size_t capacity) {
    const size_t bytes = sizeof(Header) + capacity * sizeof(T);
    void* grown;
    if (Unique()) {
      grown = std::realloc(block_, bytes);  // frees or keeps the old block
      SENSJOIN_CHECK(grown != nullptr) << "out of memory";
    } else {
      grown = std::malloc(bytes);
      SENSJOIN_CHECK(grown != nullptr) << "out of memory";
      std::copy(Items(block_), Items(block_) + size_, Items(grown));
      Release(block_);
    }
    static_cast<Header*>(grown)->refs = 1;
    block_ = grown;
    capacity_ = capacity;
  }

  void* block_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;  ///< items the block holds
};

/// Read-only iteration over a table whose `operator[](i)` returns row i.
template <class Table>
class RowIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = decltype(std::declval<const Table&>()[0]);
  using difference_type = std::ptrdiff_t;

  RowIterator() = default;
  RowIterator(const Table* table, size_t i) : table_(table), i_(i) {}

  value_type operator*() const { return (*table_)[i_]; }
  RowIterator& operator++() {
    ++i_;
    return *this;
  }
  RowIterator operator++(int) {
    RowIterator old = *this;
    ++i_;
    return old;
  }
  bool operator==(const RowIterator& o) const { return i_ == o.i_; }

 private:
  const Table* table_ = nullptr;
  size_t i_ = 0;
};

/// Fixed-width result rows in one contiguous array: row i is
/// values[i * width, (i + 1) * width).
class RowTable {
 public:
  RowTable() = default;
  explicit RowTable(size_t width) : width_(width) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t width() const { return width_; }
  std::span<const double> operator[](size_t i) const {
    return {values_.data() + i * width_, width_};
  }
  RowIterator<RowTable> begin() const { return {this, 0}; }
  RowIterator<RowTable> end() const { return {this, size_}; }

  /// Appends a copy of `row`, which must hold width() values.
  void Append(std::span<const double> row) {
    SENSJOIN_DCHECK(row.size() == width_);
    values_.Append(row);
    ++size_;
  }

  /// Element-wise equality of the rows, in order (NaN != NaN).
  friend bool operator==(const RowTable& a, const RowTable& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || (a.width_ == b.width_ && a.values_ == b.values_));
  }

 private:
  size_t width_ = 0;
  size_t size_ = 0;
  PodBuffer<double> values_;
};

/// Per-row node sets in compressed sparse row form: set i is
/// ids[ends[i - 1], ends[i]) (from 0 for i = 0).
class NodeSets {
 public:
  size_t size() const { return ends_.size(); }
  std::span<const sim::NodeId> operator[](size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_.data()[i - 1];
    return {ids_.data() + begin, ends_.data()[i] - begin};
  }
  RowIterator<NodeSets> begin() const { return {this, 0}; }
  RowIterator<NodeSets> end() const { return {this, size()}; }

  /// Appends a copy of `ids` as the next set.
  void Append(std::span<const sim::NodeId> ids) {
    ids_.Append(ids);
    const size_t end = ids_.size();
    ends_.Append({&end, 1});
  }

  friend bool operator==(const NodeSets&, const NodeSets&) = default;

 private:
  PodBuffer<size_t> ends_;
  PodBuffer<sim::NodeId> ids_;
};

/// The query answer computed at the base station. For aggregate queries
/// there is a single row; otherwise one row per matching tuple combination.
struct JoinResult {
  std::vector<std::string> column_labels;
  /// One column per label.
  RowTable rows;

  /// Number of tuple combinations satisfying all predicates.
  size_t matched_combinations = 0;
  /// Join-predicate evaluations over (partial) tuple combinations.
  size_t combinations_evaluated = 0;

  /// Distinct nodes contributing a tuple to some matching combination
  /// (sorted). |contributing_nodes| / network size is the paper's "fraction
  /// of nodes in the result" parameter.
  std::vector<sim::NodeId> contributing_nodes;

  /// Per-row contributor sets: row_nodes[i] holds the distinct (sorted)
  /// nodes whose tuples formed rows[i]. Empty for aggregate queries (one
  /// synthetic row). This is what lets a completeness certificate be
  /// checked against the result exactly: a degraded execution must contain
  /// precisely the truth rows with no excluded contributor.
  NodeSets row_nodes;
};

/// The one row order of every multiset comparison of results:
/// lexicographic by IEEE-754 total order (std::strong_order), so rows with
/// bitwise-equal values are equal and a row holding a NaN matches itself.
std::strong_ordering CompareRows(std::span<const double> a,
                                 std::span<const double> b);

/// A copy of `rows` sorted by CompareRows.
RowTable SortedRows(const RowTable& rows);

/// Size of the multiset intersection of `a` and `b` under CompareRows.
size_t CommonRows(const RowTable& a, const RowTable& b);

/// Computes the exact join over full-precision tuples, applying the
/// query's join predicates, SELECT list and aggregates. `per_table_tuples`
/// holds, for each FROM entry, the candidate tuples of that table's
/// relation (full schema width; selections are assumed already applied).
/// Borrowed pointers must outlive the call. Rows and aggregate folds follow
/// nested-loop order over the FROM list; the enumeration probes sorted value
/// indexes where the predicates allow (JoinPlan::ForExact, join_plan.h).
JoinResult ComputeExactJoin(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples);

/// ComputeExactJoin for each of `members` over one candidate pool: result
/// i equals ComputeExactJoin(*members[i], per_table_tuples). Members that
/// SameExactJoin calls equal are computed once, and their results share
/// the row buffers.
std::vector<JoinResult> ComputeExactJoins(
    std::span<const query::AnalyzedQuery* const> members,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples);

/// True if `a` and `b` give equal exact joins over every candidate pool:
/// the same FROM aliases, join predicates and SELECT list (labels and
/// aggregates included), expressions compared by SameExpr, so literals
/// by their bits.
bool SameExactJoin(const query::AnalyzedQuery& a,
                   const query::AnalyzedQuery& b);

/// Flags the candidates of FROM entry `table` (per_table_tuples[table], in
/// list order) that take part in at least one combination satisfying every
/// join predicate — the semi-join's partner test.
std::vector<char> JoinParticipants(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples,
    int table);

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_RESULT_H_
