#include "sensjoin/sim/arena.h"

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace sensjoin::sim {
namespace {

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(1024);
  std::vector<std::pair<char*, size_t>> blocks;
  for (size_t bytes : {1u, 7u, 64u, 13u, 256u, 3u}) {
    void* p = arena.Allocate(bytes, 16);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
    std::memset(p, 0xAB, bytes);
    blocks.emplace_back(static_cast<char*>(p), bytes);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t j = i + 1; j < blocks.size(); ++j) {
      const bool disjoint = blocks[i].first + blocks[i].second <=
                                blocks[j].first ||
                            blocks[j].first + blocks[j].second <=
                                blocks[i].first;
      EXPECT_TRUE(disjoint) << "blocks " << i << " and " << j << " overlap";
    }
  }
  EXPECT_GE(arena.bytes_allocated(), 1u + 7 + 64 + 13 + 256 + 3);
}

TEST(ArenaTest, GrowsBeyondOneChunkAndPointersStayStable) {
  Arena arena(512);
  std::vector<uint64_t*> slots;
  for (uint64_t i = 0; i < 1000; ++i) {
    slots.push_back(arena.New<uint64_t>(i));
  }
  EXPECT_GT(arena.num_chunks(), 1u);
  // Chunks never move: every earlier allocation still holds its value.
  for (uint64_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(*slots[i], i);
  }
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedChunk) {
  Arena arena(512);
  void* big = arena.Allocate(4096);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0, 4096);
  // A later small allocation still succeeds and does not overlap.
  void* small = arena.Allocate(64);
  ASSERT_NE(small, nullptr);
  const char* b = static_cast<const char*>(big);
  const char* s = static_cast<const char*>(small);
  EXPECT_TRUE(s + 64 <= b || b + 4096 <= s);
}

TEST(ArenaTest, ResetRetainsReservedMemory) {
  Arena arena(512);
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  const size_t reserved = arena.bytes_reserved();
  const size_t chunks = arena.num_chunks();
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.num_chunks(), chunks);
  // Post-reset allocations reuse the existing chunks.
  for (int i = 0; i < 100; ++i) arena.Allocate(64);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

struct Tracked {
  static int live;
  int value;
  explicit Tracked(int v) : value(v) { ++live; }
  ~Tracked() { --live; }
};
int Tracked::live = 0;

TEST(ArenaPoolTest, CreateDestroyRecyclesSlots) {
  Arena arena;
  ArenaPool<Tracked> pool(&arena);

  Tracked* a = pool.Create(1);
  Tracked* b = pool.Create(2);
  EXPECT_EQ(Tracked::live, 2);
  EXPECT_EQ(pool.live(), 2u);

  pool.Destroy(a);
  EXPECT_EQ(Tracked::live, 1);
  EXPECT_EQ(pool.free_count(), 1u);

  // The freed slot is reused: no new arena growth in steady state.
  const size_t allocated = arena.bytes_allocated();
  Tracked* c = pool.Create(3);
  EXPECT_EQ(c, a);  // LIFO free list hands back the same storage
  EXPECT_EQ(c->value, 3);
  EXPECT_EQ(arena.bytes_allocated(), allocated);

  pool.Destroy(b);
  pool.Destroy(c);
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.free_count(), 2u);
}

TEST(ArenaPoolTest, SteadyStateChurnsWithoutArenaGrowth) {
  Arena arena;
  ArenaPool<Tracked> pool(&arena);
  std::vector<Tracked*> live;
  for (int i = 0; i < 64; ++i) live.push_back(pool.Create(i));
  const size_t allocated = arena.bytes_allocated();
  // Churn far more objects than the population: every Create after the
  // warm-up is a free-list pop.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 32; ++i) {
      pool.Destroy(live.back());
      live.pop_back();
    }
    for (int i = 0; i < 32; ++i) live.push_back(pool.Create(round + i));
  }
  EXPECT_EQ(arena.bytes_allocated(), allocated);
  for (Tracked* t : live) pool.Destroy(t);
  EXPECT_EQ(Tracked::live, 0);
}

TEST(ArenaPoolTest, DestroysLiveObjectsWithThePool) {
  Arena arena;
  {
    ArenaPool<Tracked> pool(&arena);
    Tracked* a = pool.Create(1);
    Tracked* b = pool.Create(2);
    pool.Create(3);
    pool.Destroy(a);
    pool.Create(4);  // reuses a's slot
    pool.Destroy(b);
    EXPECT_EQ(Tracked::live, 2);
    EXPECT_EQ(pool.live(), 2u);
  }
  // The two live objects are destroyed with the pool; b's parked slot is
  // not destroyed a second time.
  EXPECT_EQ(Tracked::live, 0);
}

}  // namespace
}  // namespace sensjoin::sim
