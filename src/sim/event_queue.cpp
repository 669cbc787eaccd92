#include "sim/event_queue.h"

#include <utility>

#include "check/check.h"
#include "sim/calendar_queue.h"

namespace iotsim::sim {

namespace {

constexpr unsigned kGenerationShift = 32;
constexpr std::uint32_t kGenerationMask = (std::uint32_t{1} << 31) - 1;

}  // namespace

EventQueue::EventQueue() : impl_{std::make_unique<BinaryHeapScheduler>()} {}

EventId EventQueue::id_of(std::uint32_t slot) const {
  return (EventId{slots_[slot].generation} << kGenerationShift) | slot;
}

EventId EventQueue::schedule(SimTime when, Callback cb) {
  IOTSIM_CHECK_GE(when, SimTime::origin(), "event scheduled before simulation start");
  const std::uint64_t seq = next_seq_++;
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    IOTSIM_CHECK_LT(slots_.size(), std::size_t{0xFFFF'FFFF}, "event slab exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.callback = cb;
  s.state = SlotState::kLive;
  impl_->push(SchedEntry{when, seq, slot});
  ++live_count_;
  if (live_count_ > peak_count_) peak_count_ = live_count_;
  // Fleet pressure: a binary heap pays O(log n) per event; past the
  // threshold the calendar queue's amortised O(1) wins. One-way — fleets
  // stay dense once they are dense.
  if (!pinned_ && live_count_ >= kCalendarSwitchThreshold &&
      impl_->kind() == SchedulerKind::kBinaryHeap) {
    migrate_to(SchedulerKind::kCalendar);
  }
  return id_of(slot);
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.state = SlotState::kFree;
  s.generation = (s.generation + 1) & kGenerationMask;
  if (s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  if (slot >= slots_.size() || slots_[slot].state != SlotState::kLive || id_of(slot) != id) {
    return;
  }
  // The scheduler entry still names this slot, so the slot is freed only
  // when the entry leaves the scheduler (live_front, pop, migrate_to).
  slots_[slot].state = SlotState::kCancelled;
  --live_count_;
}

void EventQueue::migrate_to(SchedulerKind kind) {
  if (impl_->kind() == kind) return;
  std::vector<SchedEntry> entries;
  entries.reserve(impl_->size());
  while (!impl_->empty()) {
    const SchedEntry e = impl_->pop();
    // Cancelled stragglers are dropped here instead of migrating.
    if (slots_[e.slot].state == SlotState::kLive) {
      entries.push_back(e);
    } else {
      release(e.slot);
    }
  }
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

SchedEntry EventQueue::live_front() {
  // live_count_ > 0 guarantees a live entry behind any cancelled ones.
  for (;;) {
    const SchedEntry e = impl_->peek();
    if (slots_[e.slot].state == SlotState::kLive) return e;
    impl_->pop();
    release(e.slot);
  }
}

SimTime EventQueue::next_time() {
  if (live_count_ == 0) return SimTime::infinite();
  return live_front().time;
}

EventQueue::Popped EventQueue::pop() {
  IOTSIM_CHECK_GT(live_count_, std::size_t{0}, "pop() on empty EventQueue");
  SchedEntry e = impl_->pop();
  while (slots_[e.slot].state != SlotState::kLive) {
    release(e.slot);
    e = impl_->pop();
  }
  // Time monotonicity: the kernel clock never moves backwards. A violation
  // here means scheduler ordering or a scheduling path is broken.
  IOTSIM_CHECK_GE(e.time, last_popped_, "event %llu fires at t=%s, before already-popped t=%s",
                  static_cast<unsigned long long>(e.seq), e.time.to_string().c_str(),
                  last_popped_.to_string().c_str());
  last_popped_ = e.time;
  Popped out{e.time, id_of(e.slot), slots_[e.slot].callback};
  release(e.slot);
  --live_count_;
  return out;
}

void EventQueue::clear() {
  impl_->clear();
  // Release rather than discard the slots: their bumped generations keep
  // ids issued before the clear from matching the slots' next occupants.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].state != SlotState::kFree) release(static_cast<std::uint32_t>(i));
  }
  live_count_ = 0;
  last_popped_ = SimTime::origin();
}

}  // namespace iotsim::sim
