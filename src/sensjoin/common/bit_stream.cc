#include "sensjoin/common/bit_stream.h"

#include <algorithm>

#include "sensjoin/common/logging.h"

namespace sensjoin {

BitWriter BitWriter::FromBytes(std::vector<uint8_t> bytes, size_t size_bits) {
  SENSJOIN_CHECK(bytes.size() == (size_bits + 7) / 8)
      << "FromBytes:" << bytes.size() << "bytes cannot hold exactly"
      << size_bits << "bits";
  BitWriter w;
  w.bytes_ = std::move(bytes);
  w.size_bits_ = size_bits;
  const int used = static_cast<int>(size_bits % 8);
  if (used != 0) w.bytes_.back() &= static_cast<uint8_t>(0xffu << (8 - used));
  return w;
}

void BitWriter::WriteBits(uint64_t value, int count) {
  SENSJOIN_DCHECK(count >= 0 && count <= 64);
  if (count == 0) return;
  if (count < 64) value &= (1ull << count) - 1;
  int remaining = count;
  // Top up the partial last byte.
  const int used = static_cast<int>(size_bits_ % 8);
  if (used != 0) {
    const int take = std::min(8 - used, remaining);
    const uint64_t chunk = value >> (remaining - take);
    bytes_.back() |= static_cast<uint8_t>(chunk << (8 - used - take));
    size_bits_ += take;
    remaining -= take;
  }
  // Whole bytes, then the tail into a fresh byte's high bits.
  while (remaining >= 8) {
    remaining -= 8;
    bytes_.push_back(static_cast<uint8_t>(value >> remaining));
    size_bits_ += 8;
  }
  if (remaining > 0) {
    bytes_.push_back(static_cast<uint8_t>(value << (8 - remaining)));
    size_bits_ += remaining;
  }
}

void BitWriter::Append(const BitWriter& other) {
  if (other.size_bits_ == 0) return;
  // Fast path: this writer is byte-aligned, copy whole bytes.
  if (size_bits_ % 8 == 0) {
    bytes_.insert(bytes_.end(), other.bytes_.begin(), other.bytes_.end());
    size_bits_ += other.size_bits_;
    // Drop any trailing padding byte the source may have contributed.
    bytes_.resize((size_bits_ + 7) / 8);
    return;
  }
  // Unaligned: the source is byte-aligned on its side, so each of its bytes
  // lands as one shifted write straddling at most two destination bytes.
  bytes_.reserve((size_bits_ + other.size_bits_ + 7) / 8);
  const size_t full = other.size_bits_ / 8;
  for (size_t i = 0; i < full; ++i) WriteBits(other.bytes_[i], 8);
  const int rem = static_cast<int>(other.size_bits_ % 8);
  if (rem > 0) WriteBits(other.bytes_[full] >> (8 - rem), rem);
}

void BitWriter::Truncate(size_t bits) {
  SENSJOIN_DCHECK(bits <= size_bits_);
  size_bits_ = bits;
  bytes_.resize((bits + 7) / 8);
  // Re-zero the dropped low bits of the last byte so later writes can OR
  // into them.
  const int used = static_cast<int>(bits % 8);
  if (used != 0) bytes_.back() &= static_cast<uint8_t>(0xffu << (8 - used));
}

uint64_t BitReader::ReadBits(int count) {
  SENSJOIN_DCHECK(count >= 0 && count <= 64);
  SENSJOIN_CHECK(RemainingBits() >= static_cast<size_t>(count))
      << "BitReader overrun: want" << count << "bits, have" << RemainingBits();
  uint64_t value = 0;
  for (int i = 0; i < count; ++i) {
    const size_t byte_index = pos_ / 8;
    const int bit_index = 7 - static_cast<int>(pos_ % 8);
    value = (value << 1) | ((bytes_[byte_index] >> bit_index) & 1u);
    ++pos_;
  }
  return value;
}

Status BitReader::TryReadBits(int count, uint64_t* out) {
  if (count < 0 || count > 64) {
    return Status::InvalidArgument("bit count outside [0, 64]");
  }
  if (RemainingBits() < static_cast<size_t>(count)) {
    return Status::OutOfRange("BitReader overrun");
  }
  *out = ReadBits(count);
  return Status::Ok();
}

}  // namespace sensjoin
