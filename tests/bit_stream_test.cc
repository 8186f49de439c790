#include "sensjoin/common/bit_stream.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sensjoin/common/rng.h"

namespace sensjoin {
namespace {

TEST(BitWriterTest, EmptyWriter) {
  BitWriter w;
  EXPECT_EQ(w.size_bits(), 0u);
  EXPECT_EQ(w.size_bytes(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriterTest, SingleBits) {
  BitWriter w;
  w.WriteBit(true);
  w.WriteBit(false);
  w.WriteBit(true);
  EXPECT_EQ(w.size_bits(), 3u);
  EXPECT_EQ(w.size_bytes(), 1u);
  // MSB-first: 101 -> 1010 0000.
  EXPECT_EQ(w.bytes()[0], 0xA0);
}

TEST(BitWriterTest, MultiBitValuesAreMsbFirst) {
  BitWriter w;
  w.WriteBits(0b1011, 4);
  w.WriteBits(0b0010, 4);
  EXPECT_EQ(w.bytes()[0], 0xB2);
}

TEST(BitWriterTest, ZeroCountWriteIsNoop) {
  BitWriter w;
  w.WriteBits(0xFF, 0);
  EXPECT_EQ(w.size_bits(), 0u);
}

TEST(BitWriterTest, SixtyFourBitValue) {
  BitWriter w;
  const uint64_t v = 0x0123456789ABCDEFull;
  w.WriteBits(v, 64);
  BitReader r(w);
  EXPECT_EQ(r.ReadBits(64), v);
}

TEST(BitWriterTest, AppendAlignedAndUnaligned) {
  BitWriter a;
  a.WriteBits(0xAB, 8);  // aligned append path
  BitWriter b;
  b.WriteBits(0b101, 3);
  a.Append(b);
  EXPECT_EQ(a.size_bits(), 11u);
  BitReader r(a);
  EXPECT_EQ(r.ReadBits(8), 0xABu);
  EXPECT_EQ(r.ReadBits(3), 0b101u);

  // Unaligned append.
  BitWriter c;
  c.WriteBits(0b11, 2);
  c.Append(a);
  EXPECT_EQ(c.size_bits(), 13u);
  BitReader rc(c);
  EXPECT_EQ(rc.ReadBits(2), 0b11u);
  EXPECT_EQ(rc.ReadBits(8), 0xABu);
  EXPECT_EQ(rc.ReadBits(3), 0b101u);
}

TEST(BitWriterTest, AppendEmpty) {
  BitWriter a;
  a.WriteBits(0b1, 1);
  BitWriter empty;
  a.Append(empty);
  EXPECT_EQ(a.size_bits(), 1u);
}

TEST(BitWriterTest, Clear) {
  BitWriter w;
  w.WriteBits(0xFFFF, 16);
  w.Clear();
  EXPECT_EQ(w.size_bits(), 0u);
  w.WriteBit(false);
  EXPECT_EQ(w.bytes()[0], 0u);
}

TEST(BitReaderTest, PositionTracking) {
  BitWriter w;
  w.WriteBits(0xFF, 8);
  BitReader r(w);
  EXPECT_EQ(r.RemainingBits(), 8u);
  r.ReadBits(3);
  EXPECT_EQ(r.position_bits(), 3u);
  EXPECT_EQ(r.RemainingBits(), 5u);
  EXPECT_FALSE(r.AtEnd());
  r.ReadBits(5);
  EXPECT_TRUE(r.AtEnd());
}

class BitStreamRoundtripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitStreamRoundtripTest, RandomChunksRoundtrip) {
  Rng rng(GetParam());
  // Write random-width chunks, then read them back identically.
  std::vector<std::pair<uint64_t, int>> chunks;
  BitWriter w;
  for (int i = 0; i < 500; ++i) {
    const int width = static_cast<int>(rng.UniformInt(1, 64));
    const uint64_t value =
        width == 64 ? rng.NextUint64() : rng.NextUint64() & ((1ull << width) - 1);
    chunks.emplace_back(value, width);
    w.WriteBits(value, width);
  }
  BitReader r(w);
  for (const auto& [value, width] : chunks) {
    ASSERT_EQ(r.ReadBits(width), value);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST_P(BitStreamRoundtripTest, AppendEqualsConcatenation) {
  Rng rng(GetParam());
  BitWriter parts[3];
  BitWriter whole;
  for (auto& part : parts) {
    const int chunks = static_cast<int>(rng.UniformInt(0, 20));
    for (int i = 0; i < chunks; ++i) {
      const int width = static_cast<int>(rng.UniformInt(1, 63));
      const uint64_t value = rng.NextUint64() & ((1ull << width) - 1);
      part.WriteBits(value, width);
      whole.WriteBits(value, width);
    }
  }
  BitWriter combined;
  for (auto& part : parts) combined.Append(part);
  ASSERT_EQ(combined.size_bits(), whole.size_bits());
  EXPECT_EQ(combined.bytes(), whole.bytes());
}

TEST_P(BitStreamRoundtripTest, TruncateEqualsNeverWriting) {
  // Writing A+B, truncating B away, then writing C must produce exactly
  // the stream of writing A+C — including re-zeroed padding in the last
  // partial byte so later writes can OR into it.
  Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter speculative;
    BitWriter reference;
    const int prefix_chunks = static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < prefix_chunks; ++i) {
      const int width = static_cast<int>(rng.UniformInt(1, 63));
      const uint64_t value = rng.NextUint64() & ((1ull << width) - 1);
      speculative.WriteBits(value, width);
      reference.WriteBits(value, width);
    }
    const size_t mark = speculative.size_bits();
    const int spec_chunks = static_cast<int>(rng.UniformInt(1, 8));
    for (int i = 0; i < spec_chunks; ++i) {
      speculative.WriteBits(rng.NextUint64(), 64);
    }
    speculative.Truncate(mark);
    const int suffix_chunks = static_cast<int>(rng.UniformInt(0, 8));
    for (int i = 0; i < suffix_chunks; ++i) {
      const int width = static_cast<int>(rng.UniformInt(1, 63));
      const uint64_t value = rng.NextUint64() & ((1ull << width) - 1);
      speculative.WriteBits(value, width);
      reference.WriteBits(value, width);
    }
    ASSERT_EQ(speculative.size_bits(), reference.size_bits());
    EXPECT_EQ(speculative.bytes(), reference.bytes());
  }
}

TEST(BitWriterTest, WriteBitsIgnoresHighBitsAboveCount) {
  BitWriter masked;
  masked.WriteBits(~0ull, 5);
  BitWriter plain;
  plain.WriteBits(0x1f, 5);
  EXPECT_EQ(masked.bytes(), plain.bytes());
  EXPECT_EQ(masked.size_bits(), 5u);
}

TEST(BitWriterTest, ReserveBitsDoesNotChangeContents) {
  BitWriter w;
  w.WriteBits(0b101, 3);
  w.ReserveBits(4096);
  w.WriteBits(0xAB, 8);
  EXPECT_EQ(w.size_bits(), 11u);
  BitReader r(w);
  EXPECT_EQ(r.ReadBits(3), 0b101u);
  EXPECT_EQ(r.ReadBits(8), 0xABu);
}

TEST(BitReaderTest, TryReadBitsPastEndFailsWithoutAdvancing) {
  BitWriter w;
  w.WriteBits(0b1011, 4);
  BitReader r(w);
  uint64_t out = 0;
  ASSERT_TRUE(r.TryReadBits(3, &out).ok());
  EXPECT_EQ(out, 0b101u);
  // Requesting more bits than remain must fail and leave the position
  // untouched so the caller can report how far it got.
  const Status overrun = r.TryReadBits(2, &out);
  EXPECT_EQ(overrun.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(r.position_bits(), 3u);
  ASSERT_TRUE(r.TryReadBits(1, &out).ok());
  EXPECT_EQ(out, 1u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BitReaderTest, TryReadBitsOnEmptyStream) {
  BitWriter w;
  BitReader r(w);
  uint64_t out = 0;
  EXPECT_EQ(r.TryReadBits(1, &out).code(), StatusCode::kOutOfRange);
}

TEST(BitReaderTest, TryReadBitsZeroWidth) {
  BitWriter w;
  BitReader r(w);
  uint64_t out = 0xDEAD;
  // Zero-width reads succeed even at end-of-stream and yield zero.
  ASSERT_TRUE(r.TryReadBits(0, &out).ok());
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(r.position_bits(), 0u);
}

TEST(BitReaderTest, TryReadBitsRejectsInvalidWidths) {
  BitWriter w;
  w.WriteBits(~0ull, 64);
  w.WriteBits(~0ull, 64);
  BitReader r(w);
  uint64_t out = 0;
  EXPECT_EQ(r.TryReadBits(-1, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.TryReadBits(65, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.position_bits(), 0u);
}

TEST(BitReaderTest, TryReadBitsSixtyFourBitBoundary) {
  const uint64_t v = 0x0123456789ABCDEFull;
  BitWriter w;
  w.WriteBit(true);  // misalign so the 64-bit read spans 9 bytes
  w.WriteBits(v, 64);
  BitReader r(w);
  uint64_t out = 0;
  ASSERT_TRUE(r.TryReadBits(1, &out).ok());
  EXPECT_EQ(out, 1u);
  ASSERT_TRUE(r.TryReadBits(64, &out).ok());
  EXPECT_EQ(out, v);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.TryReadBits(64, &out).code(), StatusCode::kOutOfRange);
}

TEST(BitWriterTest, FromBytesRoundtrip) {
  BitWriter w;
  w.WriteBits(0b10110, 5);
  const BitWriter copy = BitWriter::FromBytes(w.bytes(), w.size_bits());
  EXPECT_EQ(copy.size_bits(), 5u);
  EXPECT_EQ(copy.bytes(), w.bytes());
}

TEST(BitWriterTest, FromBytesRezerosPaddingBits) {
  // Garbage in the padding bits of the last byte must be cleared so later
  // appends OR into clean space.
  const BitWriter w = BitWriter::FromBytes({0xFF}, 3);
  EXPECT_EQ(w.bytes()[0], 0xE0);
  BitWriter appended = w;
  appended.WriteBits(0, 5);
  EXPECT_EQ(appended.bytes()[0], 0xE0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitStreamRoundtripTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 42, 1234));

}  // namespace
}  // namespace sensjoin
