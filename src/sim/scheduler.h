// The ordering structure behind EventQueue, as an interface.
//
// A Scheduler holds (time, seq) entries and yields them in exact
// min-(time, seq) order — the kernel's determinism contract. EventQueue
// pushes one entry per distinct pending time: the events sharing a time
// wait on that time's FIFO chain inside the queue, so the kernel never
// hands a scheduler a tie, and a fleet shard's scheduler holds a few
// hundred times while its queue holds thousands of events. Two
// implementations exist:
//   * BinaryHeapScheduler — std::priority_queue; O(log n) push/pop, cheap at
//     small queue depths. The default.
//   * CalendarQueue (calendar_queue.h) — bucketed by time; amortised O(1)
//     push/pop under dense, bounded-horizon populations. EventQueue
//     migrates to it automatically when its live event count (not its
//     count of distinct times) crosses EventQueue::kCalendarSwitchThreshold.
//
// Both yield the identical pop sequence for the identical push/pop
// history (fuzz-checked in tests/sim/test_scheduler.cpp), so which one is
// active never changes simulation results — only wall-clock speed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"

namespace iotsim::sim {

/// Which ordering structure an EventQueue currently runs on.
enum class SchedulerKind : std::uint8_t {
  kBinaryHeap,
  kCalendar,
};

[[nodiscard]] constexpr std::string_view to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kBinaryHeap: return "binary-heap";
    case SchedulerKind::kCalendar: return "calendar";
  }
  return "?";
}

/// One pending entry. `seq` is the insertion sequence number, which breaks
/// timestamp ties FIFO. EventQueue pushes one entry per distinct pending
/// time (its events wait on that time's chain), so there the time alone
/// orders and `seq` only counts chains.
struct SchedEntry {
  SimTime time;
  std::uint64_t seq = 0;

  // std::greater on SchedEntry gives a min-heap on (time, seq).
  [[nodiscard]] bool operator>(const SchedEntry& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
  [[nodiscard]] bool operator<(const SchedEntry& o) const { return o > *this; }
};

/// Ordering structure contract. Entries may be pushed in any order; pop()
/// and peek() always see the minimum (time, seq) entry. Implementations are
/// single-threaded, like the kernel they serve.
class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  virtual ~Scheduler() = default;

  virtual void push(SchedEntry e) = 0;
  /// Minimum entry. Precondition: !empty().
  [[nodiscard]] virtual SchedEntry peek() = 0;
  /// Removes and returns the minimum entry. Precondition: !empty().
  virtual SchedEntry pop() = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] bool empty() const { return size() == 0; }
  virtual void clear() = 0;

  [[nodiscard]] virtual SchedulerKind kind() const = 0;
};

/// The classic binary-heap ordering — optimal for the small queue depths of
/// single-hub scenarios and unit tests.
class BinaryHeapScheduler final : public Scheduler {
 public:
  void push(SchedEntry e) override { heap_.push(e); }
  [[nodiscard]] SchedEntry peek() override { return heap_.top(); }
  SchedEntry pop() override {
    const SchedEntry e = heap_.top();
    heap_.pop();
    return e;
  }
  [[nodiscard]] std::size_t size() const override { return heap_.size(); }
  void clear() override { heap_ = {}; }
  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kBinaryHeap; }

 private:
  std::priority_queue<SchedEntry, std::vector<SchedEntry>, std::greater<>> heap_;
};

}  // namespace iotsim::sim
