#ifndef SENSJOIN_COMMON_BIT_STREAM_H_
#define SENSJOIN_COMMON_BIT_STREAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sensjoin/common/status.h"

namespace sensjoin {

/// Append-only MSB-first bit buffer. This is the wire format used by the
/// quadtree point-set encoding and the entropy coders: sizes are measured in
/// bits and padded to whole bytes only at packetization time.
class BitWriter {
 public:
  BitWriter() = default;

  /// Reconstructs a writer from raw backing bytes holding `size_bits` bits
  /// (e.g. a bitstring that went over the wire, possibly damaged). `bytes`
  /// must be exactly the rounded-up byte count; padding bits in the final
  /// byte are re-zeroed so later appends and equality behave as usual.
  static BitWriter FromBytes(std::vector<uint8_t> bytes, size_t size_bits);

  /// Appends the low `count` bits of `value`, most significant bit first.
  /// Requires count <= 64.
  void WriteBits(uint64_t value, int count);

  /// Appends a single bit (0 or 1).
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends every bit of another writer.
  void Append(const BitWriter& other);

  /// Pre-allocates backing storage for `bits` total bits.
  void ReserveBits(size_t bits) { bytes_.reserve((bits + 7) / 8); }

  /// Discards every bit at and after position `bits` (rollback point for
  /// speculative encodes). Requires bits <= size_bits().
  void Truncate(size_t bits);

  /// Number of bits written so far.
  size_t size_bits() const { return size_bits_; }

  /// Number of bytes needed to hold the bits (rounded up).
  size_t size_bytes() const { return (size_bits_ + 7) / 8; }

  /// The backing bytes; the final byte is zero-padded in the low bits.
  const std::vector<uint8_t>& bytes() const { return bytes_; }

  void Clear() {
    bytes_.clear();
    size_bits_ = 0;
  }

 private:
  std::vector<uint8_t> bytes_;
  size_t size_bits_ = 0;
};

/// Sequential MSB-first reader over a byte buffer produced by BitWriter.
class BitReader {
 public:
  /// Reads from `bytes` (not owned; must outlive the reader), exposing
  /// exactly `size_bits` bits.
  BitReader(const uint8_t* bytes, size_t size_bits)
      : bytes_(bytes), size_bits_(size_bits) {}

  /// Convenience constructor over a BitWriter's contents.
  explicit BitReader(const BitWriter& w)
      : BitReader(w.bytes().data(), w.size_bits()) {}

  /// Reads `count` bits (MSB-first) into the low bits of the result.
  /// Requires count <= 64 and RemainingBits() >= count.
  uint64_t ReadBits(int count);

  /// Reads one bit.
  bool ReadBit() { return ReadBits(1) != 0; }

  /// Bounds-checked variant for untrusted input: reading past the end (or a
  /// count outside [0, 64]) returns OutOfRange and leaves the position and
  /// `*out` untouched instead of aborting.
  Status TryReadBits(int count, uint64_t* out);

  size_t position_bits() const { return pos_; }
  size_t RemainingBits() const { return size_bits_ - pos_; }
  bool AtEnd() const { return pos_ >= size_bits_; }

 private:
  const uint8_t* bytes_;
  size_t size_bits_;
  size_t pos_ = 0;
};

}  // namespace sensjoin

#endif  // SENSJOIN_COMMON_BIT_STREAM_H_
