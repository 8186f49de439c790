#ifndef SENSJOIN_SIM_ARENA_H_
#define SENSJOIN_SIM_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace sensjoin::sim {

/// A chunked bump allocator. Allocations come out of geometrically growing
/// chunks; individual allocations are never freed (use Reset to recycle the
/// whole arena, or an ArenaPool for typed slot reuse). Pointers into the
/// arena stay stable for the arena's lifetime — chunks never move.
///
/// This backs the simulator's delivery slots: scheduling a message delivery
/// used to heap-allocate a std::function closure holding the Message; with
/// pooled arena slots the closure captures a slot pointer (fits the
/// std::function small-buffer) and the steady state allocates nothing.
class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < 256 ? 256 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  void* Allocate(size_t bytes, size_t alignment = alignof(std::max_align_t));

  /// Constructs a T in arena storage. The caller owns the object's
  /// lifetime (call the destructor explicitly or use an ArenaPool); the
  /// storage itself is reclaimed only by Reset / destruction.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    return ::new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  /// Rewinds every chunk to empty, retaining the reserved memory for
  /// reuse. All outstanding allocations become invalid; only call when the
  /// caller can prove nothing is live (e.g. no pending deliveries).
  void Reset();

  /// Bytes handed out since construction / the last Reset.
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Bytes reserved from the heap across all chunks.
  size_t bytes_reserved() const { return bytes_reserved_; }
  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    size_t size = 0;
    size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  size_t current_ = 0;  ///< index of the chunk being bumped
  size_t chunk_bytes_;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

/// A typed free-list pool over an Arena. Create/Destroy recycle fixed-size
/// slots: the first wave of Creates bump-allocates from the arena, and once
/// the population stabilizes every Create is a free-list pop — no heap
/// traffic, no per-object malloc metadata. Objects still alive when the
/// pool is destroyed are destroyed with it (e.g. the payloads of deliveries
/// pending when a Simulator goes away); the pool must not outlive its arena.
template <typename T>
class ArenaPool {
 public:
  explicit ArenaPool(Arena* arena) : arena_(arena) {}

  ArenaPool(const ArenaPool&) = delete;
  ArenaPool& operator=(const ArenaPool&) = delete;

  ~ArenaPool() {
    if (live_ == 0) return;
    const std::less<T*> before;
    std::sort(free_.begin(), free_.end(), before);
    for (T* slot : slots_) {
      if (!std::binary_search(free_.begin(), free_.end(), slot, before)) {
        slot->~T();
      }
    }
  }

  template <typename... Args>
  T* Create(Args&&... args) {
    ++live_;
    if (!free_.empty()) {
      T* slot = free_.back();
      free_.pop_back();
      return ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    }
    T* slot = arena_->New<T>(std::forward<Args>(args)...);
    slots_.push_back(slot);
    return slot;
  }

  void Destroy(T* p) {
    p->~T();
    free_.push_back(p);
    --live_;
  }

  /// Objects currently alive (created and not yet destroyed).
  size_t live() const { return live_; }
  /// Slots parked on the free list, ready for reuse.
  size_t free_count() const { return free_.size(); }

 private:
  Arena* arena_;
  std::vector<T*> slots_;  ///< every slot ever carved from the arena
  std::vector<T*> free_;
  size_t live_ = 0;
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_ARENA_H_
