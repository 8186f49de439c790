// Generates seed corpora for the fuzz targets into <out-dir>/<target>/.
// Seeds are valid inputs in each target's framing (layout prefix bytes +
// wire encoding, codec selector + payload, query text), so mutation starts
// from deep program states instead of having to rediscover the headers.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sensjoin/common/rng.h"
#include "sensjoin/compress/bzip2_like.h"
#include "sensjoin/compress/huffman.h"
#include "sensjoin/compress/rle.h"
#include "sensjoin/compress/zlib_like.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/net/tree_maintenance.h"

namespace {

using sensjoin::BitWriter;
using sensjoin::Rng;
using sensjoin::join::PointSet;
using sensjoin::join::PointSetLayout;

void WriteSeed(const std::filesystem::path& dir, const std::string& name,
               const std::vector<uint8_t>& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Frames an encoding the way point_set_decode_fuzz derives its layout:
/// byte 0 packs the flag bits and the trailing-bit shave, byte 1 the level
/// count and width.
std::vector<uint8_t> FrameEncoding(int flag_bits, int num_levels,
                                   int level_width, const BitWriter& enc) {
  const int shave = static_cast<int>(enc.size_bytes() * 8 - enc.size_bits());
  std::vector<uint8_t> bytes;
  bytes.push_back(static_cast<uint8_t>((shave << 5) | flag_bits));
  bytes.push_back(
      static_cast<uint8_t>(((level_width - 1) << 4) | (num_levels - 1)));
  bytes.insert(bytes.end(), enc.bytes().begin(), enc.bytes().end());
  return bytes;
}

PointSet RandomSet(const std::shared_ptr<const PointSetLayout>& layout,
                   Rng* rng, int points) {
  std::vector<uint64_t> keys;
  const uint64_t max_key =
      layout->total_key_bits() >= 64 ? ~0ull
                                     : (1ull << layout->total_key_bits()) - 1;
  for (int i = 0; i < points; ++i) {
    keys.push_back(rng->NextUint64() & max_key);
  }
  return PointSet::FromKeys(layout, std::move(keys));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <out-dir>\n", argv[0]);
    return 1;
  }
  const std::filesystem::path root = argv[1];
  Rng rng(0xC0FFEE);

  // --- point_set_decode_fuzz ---------------------------------------------
  {
    const std::filesystem::path dir = root / "point_set_decode_fuzz";
    std::filesystem::create_directories(dir);
    int n = 0;
    for (int flag_bits : {0, 2}) {
      for (int num_levels : {2, 4, 6}) {
        const int level_width = 2;
        const auto layout = std::make_shared<PointSetLayout>(
            flag_bits, std::vector<int>(num_levels, level_width));
        for (int points : {1, 5, 40}) {
          const PointSet set = RandomSet(layout, &rng, points);
          WriteSeed(dir, "seed" + std::to_string(n++),
                    FrameEncoding(flag_bits, num_levels, level_width,
                                  set.Encode()));
        }
      }
    }
  }

  // --- compress_fuzz ------------------------------------------------------
  {
    const std::filesystem::path dir = root / "compress_fuzz";
    std::filesystem::create_directories(dir);
    const std::vector<uint8_t> text = [] {
      const std::string s =
          "sensor 17 reading 23.5C 23.5C 23.5C 23.5C joins are general "
          "purpose aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
      return std::vector<uint8_t>(s.begin(), s.end());
    }();
    int n = 0;
    for (uint8_t codec = 0; codec < 4; ++codec) {
      // Plain payload: exercises the compress->decompress round-trip path.
      std::vector<uint8_t> plain{codec};
      plain.insert(plain.end(), text.begin(), text.end());
      WriteSeed(dir, "seed" + std::to_string(n++), plain);
      // Compressed payload: a valid input to the decoder under mutation.
      std::vector<uint8_t> compressed;
      switch (codec) {
        case 0: compressed = sensjoin::compress::HuffmanCompress(text); break;
        case 1: compressed = sensjoin::compress::ZlibLikeCompress(text); break;
        case 2: compressed = sensjoin::compress::Bzip2LikeCompress(text); break;
        case 3: compressed = sensjoin::compress::RleEncode(text); break;
      }
      std::vector<uint8_t> framed{codec};
      framed.insert(framed.end(), compressed.begin(), compressed.end());
      WriteSeed(dir, "seed" + std::to_string(n++), framed);
    }
  }

  // --- repair_beacon_fuzz -------------------------------------------------
  {
    const std::filesystem::path dir = root / "repair_beacon_fuzz";
    std::filesystem::create_directories(dir);
    int n = 0;
    for (uint8_t selector : {1, 2}) {  // num_nodes = 100, 200; no shave
      for (const sensjoin::net::RepairRequest& req :
           {sensjoin::net::RepairRequest{5, 17, 3, 0},
            sensjoin::net::RepairRequest{99, 0, -1, 1},
            sensjoin::net::RepairRequest{42, 41, 12, 2}}) {
        const BitWriter wire = sensjoin::net::EncodeRepairRequest(req);
        std::vector<uint8_t> framed{selector};
        framed.insert(framed.end(), wire.bytes().begin(), wire.bytes().end());
        WriteSeed(dir, "seed" + std::to_string(n++), framed);
      }
    }
  }

  // --- sequence_tag_fuzz --------------------------------------------------
  {
    const std::filesystem::path dir = root / "sequence_tag_fuzz";
    std::filesystem::create_directories(dir);
    int n = 0;
    // Op-stream seeds in the fuzzer's framing: op codes (op % 5:
    // 0 attempt-bump by op >> 4, 1 stamp, 2 retract, 3 deliver-stamped,
    // 4 forge) and their operand bytes; node ids and stamped-message
    // indices take two bytes, low byte first. Each seed reaches a distinct
    // verdict.
    std::vector<std::vector<uint8_t>> seeds = {
        // stamp two on one link, deliver both in order
        {1, 1, 0, 2, 0, 1, 1, 0, 2, 0, 3, 0, 0, 3, 1, 0},
        // stamp two, deliver the later first (reordered), then replay both
        {1, 1, 0, 2, 0, 1, 1, 0, 2, 0, 3, 1, 0, 3, 0, 0, 3, 1, 0, 3, 0, 0},
        // stamp, bump the attempt, deliver the old stamp (stale)
        {1, 1, 0, 2, 0, 20, 3, 0, 0},
        // stamp three on one link, deliver the oldest (first delivery),
        // the newest (reordered), then the middle one
        {1, 1, 0, 2, 0, 1, 1, 0, 2, 0, 1, 1, 0, 2, 0, 3, 0, 0, 3, 2, 0, 3,
         1, 0},
        // retract then deliver (duplicate)
        {1, 1, 0, 2, 0, 2, 0, 0, 3, 0, 0},
        // forged tags: current attempt on a virgin link (phantom), then
        // one heard by a node it was not sent to (untagged)
        {4, 3, 1, 0, 5, 0, 4, 4, 1, 1, 0, 2, 0, 3, 3, 0},
        // a stamp delivered to the wrong receiver, then a forged seq past
        // the end of its link (phantom)
        {1, 1, 0, 2, 0, 128, 0, 0, 9, 0, 4, 7, 0, 0, 5},
    };
    // seventy stamps on one link, the last delivered first (reordered)
    std::vector<uint8_t> burst;
    for (int i = 0; i < 70; ++i) burst.insert(burst.end(), {1, 7, 0, 8, 0});
    burst.insert(burst.end(), {3, 69, 0, 3, 0, 0});
    seeds.push_back(burst);
    // two stamps on one link, then enough other links that the table
    // grows; the later stamp arrives first (reordered), then the earlier
    std::vector<uint8_t> growth = {1, 1, 0, 2, 0, 1, 1, 0, 2, 0};
    for (uint8_t i = 0; i < 24; ++i) {
      growth.insert(growth.end(), {1, i, 1, static_cast<uint8_t>(i + 1), 1});
    }
    growth.insert(growth.end(), {3, 1, 0, 3, 0, 0});
    seeds.push_back(growth);
    for (const auto& s : seeds) {
      WriteSeed(dir, "seed" + std::to_string(n++), s);
    }
  }

  // --- query_parse_fuzz ---------------------------------------------------
  {
    const std::filesystem::path dir = root / "query_parse_fuzz";
    std::filesystem::create_directories(dir);
    const char* queries[] = {
        "SELECT * FROM sensors ONCE",
        "SELECT s.temp, t.temp FROM sensors s, sensors t "
        "WHERE abs(s.temp - t.temp) < 2 AND s.id < t.id SAMPLE PERIOD 30",
        "SELECT MAX(temp) FROM sensors WHERE distance(x, y, 10, 10) < 5 "
        "SAMPLE PERIOD 60",
        "SELECT COUNT(id) FROM sensors WHERE sqrt(temp) > 3 OR NOT (hum < "
        "0.5) ONCE",
    };
    int n = 0;
    for (const char* q : queries) {
      const std::string s(q);
      WriteSeed(dir, "seed" + std::to_string(n++),
                std::vector<uint8_t>(s.begin(), s.end()));
    }
  }

  // --- service_admission_fuzz ---------------------------------------------
  {
    const std::filesystem::path dir = root / "service_admission_fuzz";
    std::filesystem::create_directories(dir);
    // Framing: capacity byte, op stream (op % 4: 0 register, 1 cancel,
    // 2 lookup, 3 list-invariants), then NUL-separated query texts the
    // register ops consume round-robin.
    const char* queries[] = {
        "SELECT A.hum, B.hum FROM sensors A, sensors B "
        "WHERE A.temp - B.temp > 1.0 ONCE",
        "SELECT s.temp, t.temp FROM sensors s, sensors t "
        "WHERE abs(s.temp - t.temp) < 2 SAMPLE PERIOD 30",
        "SELECT temp FROM sensors ONCE",  // single table: rejected
        "SELECT FROM WHERE",              // malformed: rejected
    };
    int n = 0;
    for (uint8_t capacity : {1, 4}) {
      // register x4, list, cancel the first id, lookup, register again
      std::vector<uint8_t> seed = {capacity, 0, 0, 0, 0, 3, 5, 6, 0};
      for (const char* q : queries) {
        seed.insert(seed.end(), q, q + std::strlen(q));
        seed.push_back(0);
      }
      WriteSeed(dir, "seed" + std::to_string(n++), seed);
    }
  }

  std::printf("wrote seed corpora under %s\n", root.string().c_str());
  return 0;
}
