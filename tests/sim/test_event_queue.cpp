#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/random.h"

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

TEST(EventQueue, EarlierPushParksTheCurrentChain) {
  // An empty queue starts its current chain at the first push (t=50); the
  // push at t=10 parks that chain and starts an earlier one, and a later
  // push at t=50 must still join the parked chain behind its elders.
  for (const SchedulerKind kind : {SchedulerKind::kBinaryHeap, SchedulerKind::kCalendar}) {
    EventQueue q;
    q.force_scheduler(kind);
    std::vector<int> order;
    const std::int64_t times[] = {50, 50, 10, 30, 10, 50, 30};
    for (int i = 0; i < 7; ++i) {
      q.schedule(SimTime::from_ns(times[i]), [&order, i] { order.push_back(i); });
    }
    EXPECT_EQ(q.next_time(), SimTime::from_ns(10));
    while (!q.empty()) q.pop().callback();
    EXPECT_EQ(order, (std::vector<int>{2, 4, 3, 6, 0, 1, 5})) << to_string(kind);
  }
}

// Differential check: EventQueue against a reference model that pops the
// head of a stable sort by time over insertion order, both driven by the
// same seeded, interleaved push/pop history.

/// The reference: pending events in insertion order. The first event of
/// the earliest time is the head of a stable sort by time.
class ReferenceQueue {
 public:
  void push(std::int64_t t, int id) { pending_.push_back({t, id}); }
  [[nodiscard]] bool empty() const { return pending_.empty(); }
  [[nodiscard]] std::int64_t next_time() const { return first()->t; }
  std::pair<std::int64_t, int> pop() {
    const auto it = first();
    const std::pair<std::int64_t, int> head{it->t, it->id};
    pending_.erase(it);
    return head;
  }
  void clear() { pending_.clear(); }

 private:
  struct Pending {
    std::int64_t t;
    int id;
  };
  [[nodiscard]] std::vector<Pending>::const_iterator first() const {
    return std::min_element(pending_.begin(), pending_.end(),
                            [](const Pending& a, const Pending& b) { return a.t < b.t; });
  }
  std::vector<Pending> pending_;
};

struct HistoryShape {
  std::uint64_t seed = 1;
  /// Offsets (ns) past the last popped time that pushes draw from; a
  /// handful of values makes heavy ties. Empty: uniform in [0, spread_ns].
  std::vector<std::int64_t> offsets;
  std::int64_t spread_ns = 0;
  /// Each cycle pushes (with some pops) up to this many pending events,
  /// then pops (with some pushes) until both queues are empty.
  std::size_t fill_to = 300;
  int cycles = 4;
  /// Chance per step of clear() on both queues, which are then reused.
  double clear_prob = 0.0;
};

/// What a history exercised. The harness follows the queue's documented
/// rule for its current chain: the last popped time, the first push into
/// an empty queue, or a push earlier than either.
struct Coverage {
  int pops = 0;
  int pushes_at_current = 0;  // at the time being drained, after a pop there
  int pushes_before_current = 0;
  int clears = 0;
  bool migrated = false;  // reached the calendar from the heap
};

Coverage run_differential(const HistoryShape& shape, std::optional<SchedulerKind> pin) {
  EventQueue q;
  if (pin) q.force_scheduler(*pin);
  const SchedulerKind start_kind = q.scheduler_kind();
  ReferenceQueue ref;
  Rng rng{shape.seed};
  Coverage cov;
  std::vector<int> fired;
  std::int64_t last_popped = 0;  // no push precedes it, so pops stay monotone
  std::int64_t current = 0;
  bool current_was_popped = false;
  std::size_t pending = 0;
  int next_id = 0;

  auto push = [&] {
    const std::int64_t offset =
        shape.offsets.empty()
            ? rng.uniform_int(0, shape.spread_ns)
            : shape.offsets[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(shape.offsets.size()) - 1))];
    const std::int64_t t = last_popped + offset;
    if (pending == 0 || t < current) {
      if (pending > 0) ++cov.pushes_before_current;
      current = t;
      current_was_popped = false;
    } else if (t == current && current_was_popped) {
      ++cov.pushes_at_current;
    }
    const int id = next_id++;
    q.schedule(SimTime::from_ns(t), [&fired, id] { fired.push_back(id); });
    ref.push(t, id);
    ++pending;
  };
  // Returns false on a mismatch (the failure is already recorded).
  auto pop = [&]() -> bool {
    EXPECT_EQ(q.next_time(), SimTime::from_ns(ref.next_time())) << "pop " << cov.pops;
    const auto [t, id] = ref.pop();
    EventQueue::Popped ev = q.pop();
    ev.callback();
    --pending;
    ++cov.pops;
    last_popped = current = t;
    current_was_popped = true;
    EXPECT_EQ(ev.time, SimTime::from_ns(t)) << "pop " << cov.pops;
    EXPECT_EQ(fired.back(), id) << "pop " << cov.pops << " at t=" << t;
    return ev.time == SimTime::from_ns(t) && fired.back() == id;
  };

  for (int cycle = 0; cycle < shape.cycles; ++cycle) {
    while (pending < shape.fill_to) {
      if (pending > 0 && rng.uniform() < 0.25) {
        if (!pop()) return cov;
      } else {
        push();
      }
      if (rng.uniform() < shape.clear_prob) {
        q.clear();
        ref.clear();
        pending = 0;
        last_popped = current = 0;
        ++cov.clears;
      }
    }
    while (pending > 0) {
      if (rng.uniform() < 0.3) {
        push();
      } else if (!pop()) {
        return cov;
      }
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), SimTime::infinite());
    cov.migrated |= start_kind == SchedulerKind::kBinaryHeap &&
                    q.scheduler_kind() == SchedulerKind::kCalendar;
  }
  if (pin) {
    EXPECT_EQ(q.scheduler_kind(), *pin);
  }
  return cov;
}

const std::optional<SchedulerKind> kModes[] = {SchedulerKind::kBinaryHeap,
                                               SchedulerKind::kCalendar, std::nullopt};

TEST(EventQueueDifferential, HeavyTiesMatchReference) {
  HistoryShape shape;
  shape.offsets = {0, 0, 0, 1'000, 3'000, 7'000, 20'000, 100'000};
  for (const auto& pin : kModes) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      shape.seed = seed;
      const Coverage cov = run_differential(shape, pin);
      EXPECT_GT(cov.pushes_at_current, 100);
      EXPECT_GT(cov.pushes_before_current, 0);
    }
  }
}

TEST(EventQueueDifferential, SpreadTimesMatchReference) {
  // Mostly distinct times: every push parks a new chain, so the time index
  // grows and erases under collisions.
  HistoryShape shape;
  shape.spread_ns = 1'000'000;
  shape.fill_to = 1'500;
  shape.cycles = 2;
  for (const auto& pin : kModes) {
    const Coverage cov = run_differential(shape, pin);
    EXPECT_GT(cov.pops, 3'000);
    EXPECT_GT(cov.pushes_before_current, 0);
  }
}

TEST(EventQueueDifferential, ClearThenReuseMatchesReference) {
  HistoryShape shape;
  shape.offsets = {0, 0, 500, 2'000, 9'000};
  shape.clear_prob = 0.002;
  shape.cycles = 12;
  for (const auto& pin : kModes) {
    const Coverage cov = run_differential(shape, pin);
    EXPECT_GT(cov.clears, 0);
    EXPECT_GT(cov.pushes_before_current, 0);
  }
}

TEST(EventQueueDifferential, AutoMigrationMidHistoryMatchesReference) {
  // The population crosses kCalendarSwitchThreshold with chains parked and
  // one being drained; the order must carry straight through the switch.
  HistoryShape shape;
  shape.offsets = {0, 0, 1'000, 2'000, 5'000, 40'000, 250'000};
  shape.fill_to = EventQueue::kCalendarSwitchThreshold + 300;
  shape.cycles = 1;
  const Coverage cov = run_differential(shape, std::nullopt);
  EXPECT_TRUE(cov.migrated);
  EXPECT_GT(cov.pushes_at_current, 1'000);
}

}  // namespace
}  // namespace iotsim::sim
