#include "sim/event_queue.h"

#include <utility>

#include "check/check.h"
#include "sim/calendar_queue.h"

namespace iotsim::sim {

EventQueue::EventQueue() : impl_{std::make_unique<BinaryHeapScheduler>()} {}

void EventQueue::schedule(SimTime when, Callback cb) {
  IOTSIM_CHECK_GE(when, SimTime::origin(), "event scheduled before simulation start");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    IOTSIM_CHECK_LT(slots_.size(), std::size_t{0xFFFF'FFFF}, "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(cb);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = cb;
  }
  impl_->push(SchedEntry{when, seq, slot});
  const std::size_t pending = impl_->size();
  if (pending > peak_count_) peak_count_ = pending;
  // Fleet pressure: a binary heap pays O(log n) per event; past the
  // threshold the calendar queue's amortised O(1) wins. One-way — fleets
  // stay dense once they are dense.
  if (!pinned_ && pending >= kCalendarSwitchThreshold &&
      impl_->kind() == SchedulerKind::kBinaryHeap) {
    migrate_to(SchedulerKind::kCalendar);
  }
}

void EventQueue::migrate_to(SchedulerKind kind) {
  if (impl_->kind() == kind) return;
  std::vector<SchedEntry> entries;
  entries.reserve(impl_->size());
  while (!impl_->empty()) entries.push_back(impl_->pop());
  if (kind == SchedulerKind::kCalendar) {
    impl_ = std::make_unique<CalendarQueue>(std::move(entries));
  } else {
    auto heap = std::make_unique<BinaryHeapScheduler>();
    for (const SchedEntry& e : entries) heap->push(e);
    impl_ = std::move(heap);
  }
}

void EventQueue::force_scheduler(SchedulerKind kind) {
  migrate_to(kind);
  pinned_ = true;
}

EventQueue::Popped EventQueue::pop() {
  IOTSIM_CHECK(!impl_->empty(), "pop() on empty EventQueue");
  const SchedEntry e = impl_->pop();
  // Time monotonicity: the kernel clock never moves backwards. A violation
  // here means scheduler ordering or a scheduling path is broken.
  IOTSIM_CHECK_GE(e.time, last_popped_, "event %llu fires at t=%s, before already-popped t=%s",
                  static_cast<unsigned long long>(e.seq), e.time.to_string().c_str(),
                  last_popped_.to_string().c_str());
  last_popped_ = e.time;
  free_slots_.push_back(e.slot);
  return Popped{e.time, slots_[e.slot]};
}

void EventQueue::clear() {
  impl_->clear();
  slots_.clear();
  free_slots_.clear();
  last_popped_ = SimTime::origin();
}

}  // namespace iotsim::sim
