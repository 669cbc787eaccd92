// A bucketed calendar queue (Brown 1988) for dense scheduler populations.
//
// Entries hash into time buckets of fixed width; the pop scan walks buckets
// in calendar order, so under a dense, bounded-horizon population push and
// pop are amortised O(1) instead of the binary heap's O(log n). Under
// EventQueue an entry is one distinct pending time (its events wait on a
// chain in the queue), so a fleet shard's calendar holds a few hundred
// entries, not its thousands of events. Ordering stays EXACT: equal
// timestamps always land in the same bucket and each bucket is a (time,
// seq) min-heap, so the pop sequence is identical to BinaryHeapScheduler's
// (fuzz-checked in tests/sim/test_scheduler.cpp).
//
// The queue resizes itself (doubling buckets, re-deriving the bucket width
// from the observed time span) when the population outgrows the calendar.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace iotsim::sim {

class CalendarQueue final : public Scheduler {
 public:
  /// An empty calendar with defaults sized for a growing population.
  CalendarQueue();
  /// Adopts an existing population (the heap→calendar migration path);
  /// bucket count and width are derived from the batch.
  explicit CalendarQueue(std::vector<SchedEntry> entries);

  void push(SchedEntry e) override;
  [[nodiscard]] SchedEntry peek() override;
  SchedEntry pop() override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void clear() override;
  [[nodiscard]] SchedulerKind kind() const override { return SchedulerKind::kCalendar; }

  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::int64_t bucket_width_ns() const { return width_ns_; }

 private:
  using Bucket = std::priority_queue<SchedEntry, std::vector<SchedEntry>, std::greater<>>;

  [[nodiscard]] std::size_t bucket_index(SimTime t) const {
    return static_cast<std::size_t>(t.count_ns() / width_ns_) & mask_;
  }

  /// Re-derives the calendar layout for (at least) `population` entries
  /// from the batch's time range, then inserts the batch.
  void adopt(std::vector<SchedEntry> all, std::size_t population);

  /// Drains every bucket and adopt()s the population into a larger layout.
  void rebuild(std::size_t population);

  /// Index of the bucket holding the minimum entry. Precondition: size_ > 0.
  [[nodiscard]] std::size_t find_min_bucket();

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;        // buckets_.size() - 1 (power of two)
  std::int64_t width_ns_ = 1;   // bucket width, >= 1
  std::size_t size_ = 0;
  /// Lower bound on the minimum pending time — the pop scan starts at its
  /// calendar day. Pushing an earlier entry rewinds it.
  std::int64_t cursor_ns_ = 0;
  /// find_min_bucket() memo; negative = unknown. Pop and earlier-than-min
  /// pushes invalidate it.
  std::ptrdiff_t cached_min_ = -1;
};

}  // namespace iotsim::sim
