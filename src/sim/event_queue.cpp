#include "sim/event_queue.h"

#include <bit>
#include <utility>

#include "check/check.h"
#include "sim/calendar_queue.h"

namespace iotsim::sim {

std::size_t EventQueue::TimeIndex::home(std::int64_t time_ns) const {
  // Fibonacci hashing: event times are multiples of sample periods, and the
  // multiply spreads their low-entropy low bits into the top ones kept.
  constexpr std::uint64_t kGolden = 0x9E37'79B9'7F4A'7C15ULL;
  return static_cast<std::size_t>((static_cast<std::uint64_t>(time_ns) * kGolden) >> shift_);
}

EventQueue::Chain& EventQueue::TimeIndex::find_or_add(SimTime t, bool& added) {
  // At most half full, so probe runs stay short and a free cell exists.
  if (2 * (count_ + 1) > cells_.size()) grow();
  const std::int64_t key = t.count_ns();
  const std::size_t mask = cells_.size() - 1;
  std::size_t i = home(key);
  while (cells_[i].time_ns != key && cells_[i].time_ns != kEmpty) i = (i + 1) & mask;
  Entry& e = cells_[i];
  added = e.time_ns == kEmpty;
  if (added) {
    e = Entry{key, Chain{}};
    ++count_;
  }
  return e.chain;
}

EventQueue::Chain EventQueue::TimeIndex::take(SimTime t) {
  const std::int64_t key = t.count_ns();
  const std::size_t mask = cells_.size() - 1;
  std::size_t hole = home(key);
  while (cells_[hole].time_ns != key) {
    IOTSIM_CHECK_NE(cells_[hole].time_ns, kEmpty, "%s has no chain", t.to_string().c_str());
    hole = (hole + 1) & mask;
  }
  const Chain chain = cells_[hole].chain;
  // Backward-shift erase: pull each later entry of the probe run into the
  // hole unless that would move it before its home cell.
  for (std::size_t j = (hole + 1) & mask; cells_[j].time_ns != kEmpty; j = (j + 1) & mask) {
    if (((j - home(cells_[j].time_ns)) & mask) >= ((j - hole) & mask)) {
      cells_[hole] = cells_[j];
      hole = j;
    }
  }
  cells_[hole].time_ns = kEmpty;
  --count_;
  return chain;
}

void EventQueue::TimeIndex::clear() {
  for (Entry& e : cells_) e.time_ns = kEmpty;
  count_ = 0;
}

void EventQueue::TimeIndex::grow() {
  const std::size_t cells = cells_.empty() ? 64 : 2 * cells_.size();
  std::vector<Entry> old = std::exchange(cells_, std::vector<Entry>(cells));
  shift_ = 64 - std::countr_zero(cells_.size());
  count_ = 0;
  bool added = false;
  for (const Entry& e : old) {
    if (e.time_ns != kEmpty) find_or_add(SimTime::from_ns(e.time_ns), added) = e.chain;
  }
}

EventQueue::EventQueue() : impl_{std::make_unique<BinaryHeapScheduler>()} {}

std::uint32_t EventQueue::take_slot(const Callback& cb) {
  if (free_head_ == kNil) {
    IOTSIM_CHECK_LT(slots_.size(), std::size_t{kNil}, "event slab exhausted");
    slots_.push_back(Slot{cb, kNil});
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_head_;
  free_head_ = slots_[slot].next;
  slots_[slot] = Slot{cb, kNil};
  return slot;
}

void EventQueue::append(Chain& chain, std::uint32_t slot) {
  if (chain.head == kNil) {
    chain.head = slot;
  } else {
    slots_[chain.tail].next = slot;
  }
  chain.tail = slot;
}

EventQueue::Chain& EventQueue::chain_at(SimTime t) {
  bool added = false;
  Chain& chain = index_.find_or_add(t, added);
  if (added) impl_->push(SchedEntry{t, next_seq_++});
  return chain;
}

void EventQueue::schedule(SimTime when, Callback cb) {
  IOTSIM_CHECK_GE(when, SimTime::origin(), "event scheduled before simulation start");
  const std::uint32_t slot = take_slot(cb);
  if (++count_ > peak_count_) peak_count_ = count_;
  if (when == current_time_ || count_ == 1) {
    // The current chain (an empty queue starts one at any time): a push at
    // the time being drained, the commonest case, needs no lookup.
    current_time_ = when;
    append(current_, slot);
  } else if (when < current_time_) {
    // Possible once an empty queue has started a chain ahead of now(): the
    // current chain goes back into the index, and this event starts the
    // earlier one.
    if (current_.head != kNil) chain_at(current_time_) = current_;
    current_time_ = when;
    current_ = Chain{slot, slot};
  } else {
    append(chain_at(when), slot);
  }
  // Fleet pressure: a binary heap pays O(log n) per distinct time; past the
  // threshold (counted in events) the calendar queue's amortised O(1) wins.
  // One-way — fleets stay dense once they are dense.
  if (!pinned_ && count_ >= kCalendarSwitchThreshold &&
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
  IOTSIM_CHECK_GT(count_, std::size_t{0}, "pop() on empty EventQueue");
  if (current_.head == kNil) {
    // The current time is drained: the earliest parked chain takes over.
    current_time_ = impl_->pop().time;
    current_ = index_.take(current_time_);
  }
  // Time monotonicity: the kernel clock never moves backwards. A violation
  // here means scheduler ordering or a scheduling path is broken.
  IOTSIM_CHECK_GE(current_time_, last_popped_, "event fires at %s, before already-popped %s",
                  current_time_.to_string().c_str(), last_popped_.to_string().c_str());
  last_popped_ = current_time_;
  const std::uint32_t slot = current_.head;
  Slot& s = slots_[slot];
  current_.head = s.next;
  s.next = free_head_;
  free_head_ = slot;
  --count_;
  return Popped{current_time_, s.callback};
}

void EventQueue::clear() {
  impl_->clear();
  index_.clear();
  current_ = Chain{};
  current_time_ = SimTime::origin();
  slots_.clear();
  free_head_ = kNil;
  count_ = 0;
  last_popped_ = SimTime::origin();
}

}  // namespace iotsim::sim
