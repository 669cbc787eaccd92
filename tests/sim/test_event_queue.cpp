#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

namespace iotsim::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime::from_ns(30), [&] { order.push_back(3); });
  q.schedule(SimTime::from_ns(10), [&] { order.push_back(1); });
  q.schedule(SimTime::from_ns(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtEqualTime) {
  EventQueue q;
  std::vector<int> order;
  const auto t = SimTime::from_ns(5);
  for (int i = 0; i < 10; ++i) {
    q.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeOnEmptyIsInfinite) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), SimTime::infinite());
}

TEST(EventQueue, ClearEmptiesQueue) {
  EventQueue q;
  q.schedule(SimTime::from_ns(1), [] {});
  q.schedule(SimTime::from_ns(2), [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, MigratesToCalendarExactlyAtThreshold) {
  EventQueue q;
  // One below the threshold: still the binary heap.
  for (std::size_t i = 0; i + 1 < EventQueue::kCalendarSwitchThreshold; ++i) {
    q.schedule(SimTime::from_ns(static_cast<std::int64_t>(i % 97)), [] {});
  }
  ASSERT_EQ(q.size(), EventQueue::kCalendarSwitchThreshold - 1);
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kBinaryHeap);
  // The event that reaches the threshold flips the scheduler.
  q.schedule(SimTime::from_ns(3), [] {});
  EXPECT_EQ(q.size(), EventQueue::kCalendarSwitchThreshold);
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
}

TEST(EventQueue, CalendarMigrationIsOneWayAndOrderPreserving) {
  EventQueue q;
  std::vector<std::int64_t> popped;
  for (std::size_t i = 0; i < EventQueue::kCalendarSwitchThreshold + 32; ++i) {
    const auto t = static_cast<std::int64_t>((i * 31) % 257);
    q.schedule(SimTime::from_ns(t), [&popped, t] { popped.push_back(t); });
  }
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
  // Draining below the threshold must not migrate back.
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kCalendar);
  ASSERT_EQ(popped.size(), EventQueue::kCalendarSwitchThreshold + 32);
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LE(popped[i - 1], popped[i]);
}

TEST(EventQueue, PinnedSchedulerNeverAutoMigrates) {
  EventQueue q;
  q.force_scheduler(SchedulerKind::kBinaryHeap);
  for (std::size_t i = 0; i < EventQueue::kCalendarSwitchThreshold + 8; ++i) {
    q.schedule(SimTime::from_ns(1), [] {});
  }
  EXPECT_EQ(q.scheduler_kind(), SchedulerKind::kBinaryHeap);
}

TEST(EventQueue, CallbackStoresSixteenByteCapturesInline) {
  static_assert(std::is_trivially_copyable_v<EventQueue::Callback>);
  EventQueue q;
  std::int64_t sum = 0;
  std::int64_t* target = &sum;
  const std::int64_t add = 41;
  q.schedule(SimTime::from_ns(1), [target, add] { *target += add + 1; });
  EventQueue::Callback copy = q.pop().callback;
  ASSERT_TRUE(copy);
  copy();
  copy();
  EXPECT_EQ(sum, 84);
  EXPECT_FALSE(EventQueue::Callback{});
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<std::int64_t> popped;
  // Insert with a scrambled but deterministic pattern of times.
  for (std::int64_t i = 0; i < 2000; ++i) {
    const std::int64_t t = (i * 7919) % 1009;
    q.schedule(SimTime::from_ns(t), [&popped, t] { popped.push_back(t); });
  }
  while (!q.empty()) q.pop().callback();
  ASSERT_EQ(popped.size(), 2000u);
  for (std::size_t i = 1; i < popped.size(); ++i) EXPECT_LE(popped[i - 1], popped[i]);
}

}  // namespace
}  // namespace iotsim::sim
