#include "sensjoin/sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace sensjoin::sim {
namespace {

TEST(EventQueueTest, FiresInTimestampOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.ScheduleAt(3.0, [&] { fired.push_back(3); });
  q.ScheduleAt(1.0, [&] { fired.push_back(1); });
  q.ScheduleAt(2.0, [&] { fired.push_back(2); });
  q.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5.0, [&fired, i] { fired.push_back(i); });
  }
  q.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double fire_time = -1;
  q.ScheduleAt(10.0, [&] {
    q.ScheduleAfter(5.0, [&] { fire_time = q.now(); });
  });
  q.Run();
  EXPECT_EQ(fire_time, 15.0);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));  // second cancel is a no-op
  q.Run();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(9999));
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> fired;
  q.ScheduleAt(1.0, [&] { fired.push_back(1); });
  q.ScheduleAt(2.0, [&] { fired.push_back(2); });
  q.ScheduleAt(3.0, [&] { fired.push_back(3); });
  EXPECT_EQ(q.RunUntil(2.5), 2u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 2.5);
  q.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, RunUntilAdvancesTimeWithEmptyQueue) {
  EventQueue q;
  EXPECT_EQ(q.RunUntil(7.0), 0u);
  EXPECT_EQ(q.now(), 7.0);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) q.ScheduleAfter(1.0, chain);
  };
  q.ScheduleAt(0.0, chain);
  q.Run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.now(), 99.0);
}

TEST(EventQueueTest, EmptyTracksCancellations) {
  EventQueue q;
  std::vector<int> fired;
  const EventId a = q.ScheduleAt(1.0, [&] { fired.push_back(1); });
  const EventId b = q.ScheduleAt(2.0, [&] { fired.push_back(2); });
  q.Cancel(a);
  EXPECT_FALSE(q.Empty());
  q.Cancel(b);
  EXPECT_TRUE(q.Empty());
  q.ScheduleAt(3.0, [&] { fired.push_back(3); });
  q.Run();
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(fired, (std::vector<int>{3}));
}

TEST(EventQueueDeathTest, SchedulingIntoThePastAborts) {
  EventQueue q;
  q.ScheduleAt(5.0, [] {});
  q.Run();
  EXPECT_DEATH(q.ScheduleAt(1.0, [] {}), "scheduling into the past");
}

TEST(EventQueueTest, ShrinkToFitReleasesDrainedPool) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) q.ScheduleAt(static_cast<SimTime>(i), [] {});
  q.Run();
  EXPECT_GE(q.slot_count(), 1000u);  // high-water mark from the burst
  q.ShrinkToFit();
  EXPECT_EQ(q.slot_count(), 0u);
  EXPECT_EQ(q.free_slot_count(), 0u);
  // The queue is fully usable afterwards.
  std::vector<int> fired;
  q.ScheduleAfter(1.0, [&] { fired.push_back(1); });
  q.ScheduleAfter(2.0, [&] { fired.push_back(2); });
  q.Run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ShrinkToFitKeepsPendingEventsIntact) {
  EventQueue q;
  std::vector<int> fired;
  // Survivors claim the first slots, then a burst drains above them: shrink
  // must drop only the trailing inactive run, never a pending callback.
  const EventId keep = q.ScheduleAt(2.0, [&] { fired.push_back(2); });
  q.ScheduleAt(3.0, [&] { fired.push_back(3); });
  for (int i = 0; i < 500; ++i) q.ScheduleAt(1.0, [] {});
  q.RunUntil(1.5);
  q.ShrinkToFit();
  EXPECT_FALSE(q.Empty());
  EXPECT_EQ(q.slot_count(), 2u);
  // Outstanding handles still work after the shrink.
  EXPECT_TRUE(q.Cancel(keep));
  q.Run();
  EXPECT_EQ(fired, (std::vector<int>{3}));
}

TEST(EventQueueTest, StaleIdsStayDeadAcrossShrink) {
  EventQueue q;
  const EventId fired_id = q.ScheduleAt(1.0, [] {});
  q.Run();
  q.ShrinkToFit();
  // New events may reuse the discarded slot index; the old id must not
  // cancel them (generation floor).
  std::vector<int> fired;
  q.ScheduleAfter(1.0, [&] { fired.push_back(1); });
  EXPECT_FALSE(q.Cancel(fired_id));
  q.Run();
  EXPECT_EQ(fired, (std::vector<int>{1}));
}

TEST(EventQueueTest, ShrinkToFitPreservesStatistics) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.ScheduleAt(1.0, [] {});
  q.Run();
  q.ShrinkToFit();
  EXPECT_EQ(q.total_scheduled(), 64u);
  EXPECT_EQ(q.total_fired(), 64u);
  EXPECT_EQ(q.max_pending(), 64u);
}

}  // namespace
}  // namespace sensjoin::sim
