#include "sensjoin/join/join_attr_codec.h"

#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {

JoinAttrCodec::JoinAttrCodec(Quantizer quantizer, int flag_bits)
    : quantizer_(std::move(quantizer)),
      zorder_(quantizer_.bits_per_dims()),
      flag_bits_(flag_bits),
      layout_(std::make_shared<const PointSetLayout>(flag_bits,
                                                     zorder_.level_widths())) {
}

uint64_t JoinAttrCodec::EncodeTuple(const std::vector<double>& values,
                                    uint8_t flags) const {
  SENSJOIN_DCHECK(static_cast<int>(values.size()) == quantizer_.num_dims());
  SENSJOIN_DCHECK(flag_bits_ == 0 || flags != 0);
  std::vector<uint32_t> coords(values.size());
  for (int i = 0; i < quantizer_.num_dims(); ++i) {
    coords[i] = quantizer_.Coordinate(i, values[i]);
  }
  return layout_->MakeKey(flags, zorder_.Interleave(coords));
}

std::vector<uint32_t> JoinAttrCodec::KeyCoordinates(uint64_t key) const {
  return zorder_.Deinterleave(layout_->ZOfKey(key));
}

std::vector<query::Interval> JoinAttrCodec::KeyIntervals(uint64_t key) const {
  const std::vector<uint32_t> coords = KeyCoordinates(key);
  std::vector<query::Interval> out(coords.size());
  for (int i = 0; i < quantizer_.num_dims(); ++i) {
    out[i] = quantizer_.CellInterval(i, coords[i]);
  }
  return out;
}

}  // namespace sensjoin::join
