#ifndef SENSJOIN_JOIN_POINT_SET_H_
#define SENSJOIN_JOIN_POINT_SET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sensjoin/common/bit_stream.h"
#include "sensjoin/common/statusor.h"

namespace sensjoin::join {

/// Describes the digit structure of quadtree keys: an optional relation-flag
/// digit (the topmost index node represents the relation flags; Sec. V-C)
/// followed by one digit per Z-order level. A key packs the digits MSB-first:
/// flags, then the interleaved coordinate bits.
class PointSetLayout {
 public:
  /// `flag_bits` is the number of relations (>= 0); `z_level_widths` are the
  /// per-level digit widths of the Z-order (ZOrder::level_widths()).
  PointSetLayout(int flag_bits, std::vector<int> z_level_widths);

  int flag_bits() const { return flag_bits_; }
  int num_levels() const { return static_cast<int>(level_widths_.size()); }
  const std::vector<int>& level_widths() const { return level_widths_; }
  int total_key_bits() const { return total_key_bits_; }

  uint64_t MakeKey(uint8_t flags, uint64_t z) const;
  uint8_t FlagsOfKey(uint64_t key) const;
  uint64_t ZOfKey(uint64_t key) const;

  friend bool operator==(const PointSetLayout& a, const PointSetLayout& b) {
    return a.flag_bits_ == b.flag_bits_ && a.level_widths_ == b.level_widths_;
  }

 private:
  int flag_bits_;
  std::vector<int> level_widths_;  ///< flags digit (if any) + z levels
  int total_key_bits_ = 0;
};

/// A set of quantized join-attribute tuples (Join_Attr_Structure). The
/// canonical in-memory form is a sorted, duplicate-free key vector; the wire
/// form is the pointerless region-quadtree bitstring of Fig. 9:
///
///   node      := list | index
///   list      := ('1' suffix-bits)+ '0'        (points relative to the path)
///   index     := '0' presence-mask child-node*  (2^width mask bits)
///
/// The decomposition threshold is cost-based (Sec. V-C "Decomposition
/// threshold"): a node is subdivided exactly when the subdivided encoding is
/// shorter than listing its points, so the encoding of a given set is
/// canonical. Union/Intersect therefore commute with encoding — merging two
/// encodings structurally and merging key vectors produce identical bits —
/// and no general-purpose decompression is ever needed (Sec. V-D).
class PointSet {
 public:
  explicit PointSet(std::shared_ptr<const PointSetLayout> layout);

  /// Builds a set from arbitrary (possibly unsorted, duplicated) keys.
  static PointSet FromKeys(std::shared_ptr<const PointSetLayout> layout,
                           std::vector<uint64_t> keys);

  const PointSetLayout& layout() const { return *layout_; }

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  const std::vector<uint64_t>& keys() const { return keys_; }

  /// Inserts one point (InsertJoinAtts).
  void Insert(uint64_t key);

  /// Inserts a batch of (possibly unsorted, duplicated) points in one
  /// sort-and-merge pass instead of one O(n) vector shift per key.
  void InsertAll(std::vector<uint64_t> batch);

  bool Contains(uint64_t key) const;

  /// Set union / intersection (UnionJoinAtts, IntersectJoinAtts). The
  /// operands must share the layout.
  static PointSet Union(const PointSet& a, const PointSet& b);
  static PointSet Intersect(const PointSet& a, const PointSet& b);

  /// Merges `other` into this set without allocating a result PointSet.
  /// `scratch` (optional) receives the previous key buffer, so a caller
  /// folding many sets in a loop recycles one allocation instead of
  /// paying a fresh vector per union — the per-node accumulation path of
  /// the collection phase.
  void UnionInPlace(const PointSet& other,
                    std::vector<uint64_t>* scratch = nullptr);

  /// Serializes to the quadtree bitstring. An empty set encodes to zero
  /// bits.
  BitWriter Encode() const;

  /// Same, into a caller-owned writer (cleared first, backing capacity
  /// kept), so per-node encode loops reuse one scratch buffer.
  void EncodeTo(BitWriter* out) const;

  /// Size of the encoding without materializing it: a bottom-up pass over
  /// the node costs in integer arithmetic. Cached between mutations.
  size_t EncodedBits() const;
  size_t EncodedBytes() const { return (EncodedBits() + 7) / 8; }

  /// Parses an encoding produced by Encode() under `layout`. Fails on
  /// malformed input (overruns, out-of-order points).
  static StatusOr<PointSet> Decode(std::shared_ptr<const PointSetLayout> layout,
                                   const BitWriter& encoded);

  /// Same, over a raw byte span holding `size_bits` bits — the form a
  /// receiver has after reassembling (possibly damaged) fragments. Never
  /// aborts, whatever the bytes contain.
  static StatusOr<PointSet> Decode(std::shared_ptr<const PointSetLayout> layout,
                                   const uint8_t* bytes, size_t size_bits);

  friend bool operator==(const PointSet& a, const PointSet& b) {
    return *a.layout_ == *b.layout_ && a.keys_ == b.keys_;
  }

 private:
  void EncodeNode(size_t begin, size_t end, int level, int consumed_bits,
                  BitWriter* out) const;
  size_t NodeEncodedBits(size_t begin, size_t end, int level,
                         int consumed_bits) const;

  std::shared_ptr<const PointSetLayout> layout_;
  std::vector<uint64_t> keys_;  // sorted, unique
  mutable size_t cached_encoded_bits_ = 0;
  mutable bool cache_valid_ = false;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_POINT_SET_H_
