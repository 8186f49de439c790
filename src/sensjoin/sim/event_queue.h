#ifndef SENSJOIN_SIM_EVENT_QUEUE_H_
#define SENSJOIN_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sensjoin/sim/time.h"

namespace sensjoin::sim {

/// Handle for a scheduled event, usable with EventQueue::Cancel.
using EventId = uint64_t;

/// A discrete-event scheduler. Events fire in timestamp order; ties are
/// broken by insertion order so simulations are fully deterministic.
///
/// Callbacks live in a slot vector recycled through a free list, and an
/// EventId encodes (slot, generation) so stale handles never alias a
/// reused slot. Compared to the original hash-map storage this removes a
/// node allocation plus two hash lookups per event — the per-fragment
/// scheduling path is the hottest allocation site in a trial.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` to run at absolute time `t`. Requires t >= now().
  EventId ScheduleAt(SimTime t, Callback cb);

  /// Schedules `cb` to run `delay` seconds from now. Requires delay >= 0.
  EventId ScheduleAfter(SimTime delay, Callback cb) {
    return ScheduleAt(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Canceling an already-fired or unknown id is a
  /// no-op. Returns true if the event was pending.
  bool Cancel(EventId id);

  /// Current simulation time (timestamp of the last fired event).
  SimTime now() const { return now_; }

  /// True if no events are pending.
  bool Empty() const { return pending_count_ == 0; }

  /// Fires the next event. Returns false if the queue is empty.
  bool RunOne();

  /// Fires events until the queue is empty or `t` is reached; leaves now()
  /// at min(t, time of last event). Returns the number of events fired.
  size_t RunUntil(SimTime t);

  /// Fires events until the queue drains. `max_events` guards against
  /// runaway self-rescheduling loops. Returns the number of events fired.
  size_t Run(size_t max_events = 100'000'000);

  /// Returns high-water storage to the allocator after a burst: all slots
  /// when the queue is drained (plus any stale heap entries), otherwise the
  /// trailing run of inactive slots and the free list's slack. Outstanding
  /// EventIds stay valid — ids of discarded slots are permanently dead via
  /// a generation floor, so a recycled slot index can never alias an old
  /// handle. Executors call this at phase boundaries, where the queue is
  /// empty but its high-water mark reflects the whole previous phase.
  void ShrinkToFit();

  /// Pool introspection (diagnostics / tests).
  size_t slot_count() const { return slots_.size(); }
  size_t free_slot_count() const { return free_slots_.size(); }

  // Lifetime statistics, captured into metrics dumps by
  // obs::CaptureSimulatorMetrics. Never reset (they describe the whole run).
  uint64_t total_scheduled() const { return total_scheduled_; }
  uint64_t total_fired() const { return total_fired_; }
  uint64_t total_canceled() const { return total_canceled_; }
  /// Largest number of simultaneously pending events seen so far.
  size_t max_pending() const { return max_pending_; }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    EventId id;
    // Ordered as a min-heap on (time, seq).
    bool operator>(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// One pooled event. `generation` is bumped every time the slot is
  /// released (fired or canceled), invalidating outstanding EventIds.
  struct Slot {
    Callback cb;
    uint32_t generation = 0;
    bool active = false;
  };

  static EventId MakeId(uint32_t slot, uint32_t generation) {
    return (static_cast<uint64_t>(slot) << 32) | generation;
  }
  static uint32_t SlotOf(EventId id) { return static_cast<uint32_t>(id >> 32); }
  static uint32_t GenerationOf(EventId id) {
    return static_cast<uint32_t>(id);
  }

  /// Returns the slot's index to the free list; the callback's captured
  /// state is destroyed by the caller moving it out (fire) or here (cancel).
  void Release(uint32_t slot);

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  /// Slots created after a ShrinkToFit start their generation here, above
  /// every generation a discarded slot ever handed out, so stale EventIds
  /// can never alias a recreated slot index.
  uint32_t generation_floor_ = 0;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  size_t pending_count_ = 0;
  uint64_t total_scheduled_ = 0;
  uint64_t total_fired_ = 0;
  uint64_t total_canceled_ = 0;
  size_t max_pending_ = 0;
};

}  // namespace sensjoin::sim

#endif  // SENSJOIN_SIM_EVENT_QUEUE_H_
