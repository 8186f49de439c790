#include "sensjoin/join/point_set.h"

#include <algorithm>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {
namespace {

uint64_t LowMask(int bits) {
  return bits >= 64 ? ~0ull : ((1ull << bits) - 1);
}

}  // namespace

PointSetLayout::PointSetLayout(int flag_bits, std::vector<int> z_level_widths)
    : flag_bits_(flag_bits) {
  SENSJOIN_CHECK(flag_bits >= 0 && flag_bits <= 6)
      << "at most 6 relations supported (presence mask fits 64 bits)";
  if (flag_bits > 0) level_widths_.push_back(flag_bits);
  for (int w : z_level_widths) {
    SENSJOIN_CHECK(w >= 1 && w <= 6) << "level width out of range";
    level_widths_.push_back(w);
  }
  SENSJOIN_CHECK(!level_widths_.empty());
  for (int w : level_widths_) total_key_bits_ += w;
  SENSJOIN_CHECK_LE(total_key_bits_, 64);
}

uint64_t PointSetLayout::MakeKey(uint8_t flags, uint64_t z) const {
  const int z_bits = total_key_bits_ - flag_bits_;
  SENSJOIN_DCHECK((z & ~LowMask(z_bits)) == 0);
  SENSJOIN_DCHECK(flags <= LowMask(flag_bits_));
  if (flag_bits_ == 0) return z;
  return (static_cast<uint64_t>(flags) << z_bits) | z;
}

uint8_t PointSetLayout::FlagsOfKey(uint64_t key) const {
  if (flag_bits_ == 0) return 0;
  const int z_bits = total_key_bits_ - flag_bits_;
  return static_cast<uint8_t>(key >> z_bits);
}

uint64_t PointSetLayout::ZOfKey(uint64_t key) const {
  const int z_bits = total_key_bits_ - flag_bits_;
  return key & LowMask(z_bits);
}

PointSet::PointSet(std::shared_ptr<const PointSetLayout> layout)
    : layout_(std::move(layout)) {
  SENSJOIN_CHECK(layout_ != nullptr);
}

PointSet PointSet::FromKeys(std::shared_ptr<const PointSetLayout> layout,
                            std::vector<uint64_t> keys) {
  PointSet set(std::move(layout));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (uint64_t k : keys) {
    SENSJOIN_CHECK((k & ~LowMask(set.layout_->total_key_bits())) == 0)
        << "key exceeds layout width";
  }
  set.keys_ = std::move(keys);
  return set;
}

void PointSet::Insert(uint64_t key) {
  SENSJOIN_DCHECK((key & ~LowMask(layout_->total_key_bits())) == 0);
  auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it != keys_.end() && *it == key) return;
  keys_.insert(it, key);
  cache_valid_ = false;
}

void PointSet::InsertAll(std::vector<uint64_t> batch) {
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end());
  batch.erase(std::unique(batch.begin(), batch.end()), batch.end());
  SENSJOIN_DCHECK(std::all_of(batch.begin(), batch.end(), [&](uint64_t k) {
    return (k & ~LowMask(layout_->total_key_bits())) == 0;
  }));
  std::vector<uint64_t> merged;
  merged.reserve(keys_.size() + batch.size());
  std::set_union(keys_.begin(), keys_.end(), batch.begin(), batch.end(),
                 std::back_inserter(merged));
  if (merged.size() != keys_.size()) cache_valid_ = false;
  keys_ = std::move(merged);
}

bool PointSet::Contains(uint64_t key) const {
  return std::binary_search(keys_.begin(), keys_.end(), key);
}

PointSet PointSet::Union(const PointSet& a, const PointSet& b) {
  SENSJOIN_CHECK(*a.layout_ == *b.layout_);
  PointSet out(a.layout_);
  out.keys_.reserve(a.keys_.size() + b.keys_.size());
  std::set_union(a.keys_.begin(), a.keys_.end(), b.keys_.begin(),
                 b.keys_.end(), std::back_inserter(out.keys_));
  return out;
}

void PointSet::UnionInPlace(const PointSet& other,
                            std::vector<uint64_t>* scratch) {
  SENSJOIN_CHECK(*layout_ == *other.layout_);
  if (other.keys_.empty()) return;
  if (keys_.empty()) {
    keys_ = other.keys_;
    cache_valid_ = false;
    return;
  }
  std::vector<uint64_t> local;
  std::vector<uint64_t>& merged = scratch != nullptr ? *scratch : local;
  merged.clear();
  merged.reserve(keys_.size() + other.keys_.size());
  std::set_union(keys_.begin(), keys_.end(), other.keys_.begin(),
                 other.keys_.end(), std::back_inserter(merged));
  keys_.swap(merged);  // the old buffer stays in `merged` for reuse
  cache_valid_ = false;
}

PointSet PointSet::Intersect(const PointSet& a, const PointSet& b) {
  SENSJOIN_CHECK(*a.layout_ == *b.layout_);
  PointSet out(a.layout_);
  std::set_intersection(a.keys_.begin(), a.keys_.end(), b.keys_.begin(),
                        b.keys_.end(), std::back_inserter(out.keys_));
  return out;
}

void PointSet::EncodeNode(size_t begin, size_t end, int level,
                          int consumed_bits, BitWriter* out) const {
  const int suffix = layout_->total_key_bits() - consumed_bits;
  SENSJOIN_DCHECK(end > begin);
  const size_t list_bits =
      (end - begin) * (1 + static_cast<size_t>(suffix)) + 1;

  if (level < layout_->num_levels()) {
    // Speculatively emit the subdivided form — index node marker, presence
    // mask, children — straight into `out`, then roll back if listing the
    // points is at least as short (the cost-based decomposition threshold
    // subdivides only when strictly shorter).
    const size_t mark = out->size_bits();
    const int width = layout_->level_widths()[level];
    const int digit_shift = suffix - width;
    const uint64_t num_children = 1ull << width;
    out->WriteBit(false);
    uint64_t mask = 0;  // bit (num_children-1-d) set if child d present
    for (size_t i = begin; i < end; ++i) {
      mask |= 1ull << (num_children - 1 -
                       ((keys_[i] >> digit_shift) & LowMask(width)));
    }
    out->WriteBits(mask, static_cast<int>(num_children));
    size_t i = begin;
    while (i < end) {
      const uint64_t digit = (keys_[i] >> digit_shift) & LowMask(width);
      size_t j = i;
      while (j < end &&
             ((keys_[j] >> digit_shift) & LowMask(width)) == digit) {
        ++j;
      }
      EncodeNode(i, j, level + 1, consumed_bits + width, out);
      i = j;
    }
    if (out->size_bits() - mark < list_bits) return;
    out->Truncate(mark);
  }

  // List the points relative to the current path. Below the deepest level
  // this is the only form (each point contributes just its presence marker).
  for (size_t i = begin; i < end; ++i) {
    out->WriteBit(true);
    out->WriteBits(keys_[i] & LowMask(suffix), suffix);
  }
  out->WriteBit(false);
}

size_t PointSet::NodeEncodedBits(size_t begin, size_t end, int level,
                                 int consumed_bits) const {
  const int suffix = layout_->total_key_bits() - consumed_bits;
  const size_t list_bits =
      (end - begin) * (1 + static_cast<size_t>(suffix)) + 1;
  if (level >= layout_->num_levels()) return list_bits;
  const int width = layout_->level_widths()[level];
  const int digit_shift = suffix - width;
  size_t sub_bits = 1 + (1ull << width);
  size_t i = begin;
  while (i < end) {
    const uint64_t digit = (keys_[i] >> digit_shift) & LowMask(width);
    size_t j = i;
    while (j < end && ((keys_[j] >> digit_shift) & LowMask(width)) == digit) {
      ++j;
    }
    sub_bits += NodeEncodedBits(i, j, level + 1, consumed_bits + width);
    i = j;
  }
  return std::min(sub_bits, list_bits);
}

BitWriter PointSet::Encode() const {
  BitWriter out;
  EncodeTo(&out);
  return out;
}

void PointSet::EncodeTo(BitWriter* out) const {
  out->Clear();  // keeps the backing capacity for reuse across nodes
  if (keys_.empty()) return;
  out->ReserveBits(EncodedBits());
  EncodeNode(0, keys_.size(), 0, 0, out);
  SENSJOIN_DCHECK(out->size_bits() == EncodedBits());
}

size_t PointSet::EncodedBits() const {
  if (!cache_valid_) {
    cached_encoded_bits_ =
        keys_.empty() ? 0 : NodeEncodedBits(0, keys_.size(), 0, 0);
    cache_valid_ = true;
  }
  return cached_encoded_bits_;
}

namespace {

/// Recursive decoder for the node grammar. `prefix` holds the digits
/// consumed so far (path from the root).
Status DecodeNode(const PointSetLayout& layout, BitReader* reader, int level,
                  uint64_t prefix, int consumed_bits,
                  std::vector<uint64_t>* out) {
  const int suffix = layout.total_key_bits() - consumed_bits;
  if (reader->RemainingBits() < 1) {
    return Status::InvalidArgument("truncated point-set encoding");
  }
  if (reader->ReadBit()) {
    // Point list: first '1' already consumed.
    while (true) {
      if (reader->RemainingBits() < static_cast<size_t>(suffix) + 1) {
        return Status::InvalidArgument("truncated point list");
      }
      const uint64_t v = reader->ReadBits(suffix);
      out->push_back((prefix << suffix) | v);
      if (!reader->ReadBit()) break;
    }
    return Status::Ok();
  }
  // Index node.
  if (level >= layout.num_levels()) {
    return Status::InvalidArgument("index node below the deepest level");
  }
  const int width = layout.level_widths()[level];
  const uint64_t num_children = 1ull << width;
  if (reader->RemainingBits() < num_children) {
    return Status::InvalidArgument("truncated presence mask");
  }
  const uint64_t mask = reader->ReadBits(static_cast<int>(num_children));
  if (mask == 0) {
    return Status::InvalidArgument("index node without children");
  }
  for (uint64_t d = 0; d < num_children; ++d) {
    if ((mask >> (num_children - 1 - d)) & 1ull) {
      SENSJOIN_RETURN_IF_ERROR(DecodeNode(layout, reader, level + 1,
                                          (prefix << width) | d,
                                          consumed_bits + width, out));
    }
  }
  return Status::Ok();
}

}  // namespace

StatusOr<PointSet> PointSet::Decode(
    std::shared_ptr<const PointSetLayout> layout, const BitWriter& encoded) {
  return Decode(std::move(layout), encoded.bytes().data(),
                encoded.size_bits());
}

StatusOr<PointSet> PointSet::Decode(
    std::shared_ptr<const PointSetLayout> layout, const uint8_t* bytes,
    size_t size_bits) {
  PointSet set(layout);
  if (size_bits == 0) return set;
  BitReader reader(bytes, size_bits);
  SENSJOIN_RETURN_IF_ERROR(
      DecodeNode(*layout, &reader, 0, 0, 0, &set.keys_));
  if (reader.RemainingBits() > 0) {
    return Status::InvalidArgument("trailing bits after point-set encoding");
  }
  for (size_t i = 1; i < set.keys_.size(); ++i) {
    if (set.keys_[i - 1] >= set.keys_[i]) {
      return Status::InvalidArgument("point-set keys not strictly ascending");
    }
  }
  return set;
}

}  // namespace sensjoin::join
