#ifndef SENSJOIN_JOIN_JOIN_ATTR_CODEC_H_
#define SENSJOIN_JOIN_JOIN_ATTR_CODEC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "sensjoin/join/point_set.h"
#include "sensjoin/join/quantizer.h"
#include "sensjoin/join/zorder.h"
#include "sensjoin/query/interval.h"

namespace sensjoin::join {

/// Bundles quantization, Z-ordering and the quadtree layout for one query's
/// join-attribute space (Sec. V). One codec instance is shared by all nodes
/// and the base station during an execution: nodes encode their
/// join-attribute tuples to keys; the base station decodes keys back to
/// per-dimension cell intervals for the conservative filter join.
///
/// A key is (relation flags, Z-number): the flags occupy the topmost digit
/// (the topmost index node of the quadtree represents the relation flags;
/// Sec. V-C), the Z-number interleaves the quantized coordinates.
class JoinAttrCodec {
 public:
  /// `flag_bits` is the number of distinct relations in the query (each
  /// relation gets one membership bit).
  JoinAttrCodec(Quantizer quantizer, int flag_bits);

  const Quantizer& quantizer() const { return quantizer_; }
  const ZOrder& zorder() const { return zorder_; }
  int flag_bits() const { return flag_bits_; }

  const std::shared_ptr<const PointSetLayout>& layout() const {
    return layout_;
  }

  /// An empty Join_Attr_Structure under this codec's layout.
  PointSet EmptySet() const { return PointSet(layout_); }

  /// Encodes a join-attribute tuple: `values` holds one raw value per
  /// quantizer dimension (in dimension order); `flags` is the node's
  /// relation-membership bitmap (must be non-zero).
  uint64_t EncodeTuple(const std::vector<double>& values, uint8_t flags) const;

  uint8_t KeyFlags(uint64_t key) const { return layout_->FlagsOfKey(key); }

  /// Per-dimension cell coordinates of `key`.
  std::vector<uint32_t> KeyCoordinates(uint64_t key) const;

  /// Per-dimension intervals of raw values covered by `key`'s cell; the
  /// input to conservative predicate evaluation.
  std::vector<query::Interval> KeyIntervals(uint64_t key) const;

 private:
  Quantizer quantizer_;
  ZOrder zorder_;
  int flag_bits_;
  std::shared_ptr<const PointSetLayout> layout_;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_JOIN_ATTR_CODEC_H_
