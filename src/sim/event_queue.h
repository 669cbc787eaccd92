// A deterministic pending-event set for the discrete-event kernel.
//
// Events at equal timestamps fire in insertion order (FIFO tie-break), which
// makes multi-component simulations reproducible run to run.
//
// The queue orders distinct pending timestamps, not single events. Hubs
// sample at fixed rates, so most events land on a time that already has a
// pending event; every event at one time sits on that time's FIFO chain, a
// singly linked list through the callback slab. A flat open-addressed index
// finds the chain of a pending time, and a pluggable sim::Scheduler orders
// one entry per distinct time: a binary heap by default, migrating
// automatically to a bucketed CalendarQueue once the live event population
// crosses kCalendarSwitchThreshold (fleet pressure). Both yield the
// identical pop sequence, so the switch never changes results.
//
// The chain being drained is held outside the scheduler and the index, so
// a push at the current time is an O(1) append and a pop from it is an
// unlink. An empty queue starts the current chain at the time of its first
// push; a later push earlier than that chain puts it back into the index
// and starts a new current chain.
//
// Callbacks live in a slab of slots reused through a free list threaded
// through the same `next` links, and a callback is stored inline without
// allocating.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace iotsim::sim {

/// A non-allocating `void()` callable: a trivially copyable functor of at
/// most kCapacity bytes is stored inline as its bytes and called on a copy
/// rebuilt from them. Every event the kernel schedules is a lambda over a
/// coroutine handle, or an object pointer plus one word, which fits; larger
/// state belongs in an object the lambda points at.
class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = 16;

  InlineCallback() = default;

  template <class Fn>
    requires(!std::is_same_v<Fn, InlineCallback> && std::is_invocable_r_v<void, Fn&>)
  InlineCallback(Fn f) noexcept {  // NOLINT(google-explicit-constructor)
    static_assert(sizeof(Fn) <= kCapacity,
                  "event callback captures more than 16 bytes: capture a pointer to the "
                  "state instead of the state");
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "event callback must be trivially copyable: capture handles, pointers "
                  "and scalars by value, not owning objects");
    std::memcpy(storage_.data(), std::addressof(f), sizeof(Fn));
    invoke_ = [](const Storage& bytes) {
      std::array<std::byte, sizeof(Fn)> image{};
      std::memcpy(image.data(), bytes.data(), sizeof(Fn));
      std::bit_cast<Fn>(image)();
    };
  }

  void operator()() const { invoke_(storage_); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  using Storage = std::array<std::byte, kCapacity>;

  Storage storage_{};
  void (*invoke_)(const Storage&) = nullptr;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Pending events beyond which the queue migrates from the binary heap to
  /// the calendar queue (one-way; see force_scheduler for tests).
  static constexpr std::size_t kCalendarSwitchThreshold = 4096;

  EventQueue();

  /// Schedules `cb` to run at absolute time `when`.
  void schedule(SimTime when, Callback cb);

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }
  /// High-water mark of the pending event population.
  [[nodiscard]] std::size_t peak_size() const { return peak_count_; }

  /// Time of the earliest pending event; SimTime::infinite() when empty.
  [[nodiscard]] SimTime next_time() {
    if (current_.head != kNil) return current_time_;
    return impl_->empty() ? SimTime::infinite() : impl_->peek().time;
  }

  /// Removes and returns the earliest pending event. Precondition: !empty().
  struct Popped {
    SimTime time;
    Callback callback;
  };
  Popped pop();

  void clear();

  /// The ordering structure currently in use.
  [[nodiscard]] SchedulerKind scheduler_kind() const { return impl_->kind(); }
  /// Migrates to `kind` now and pins it (disables the automatic switch).
  /// Test/bench hook — the pop order is identical either way.
  void force_scheduler(SchedulerKind kind);

 private:
  static constexpr std::uint32_t kNil = 0xFFFF'FFFF;

  /// One callback and the next slot on its chain (or on the free list).
  struct Slot {
    Callback callback;
    std::uint32_t next = kNil;
  };

  /// The FIFO of events at one time: first and last slot. `head == kNil`
  /// is the empty chain, and `tail` is then meaningless.
  struct Chain {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  /// Open-addressed map (linear probing, backward-shift erase) from a time
  /// that has a chain in the scheduler to that chain.
  class TimeIndex {
   public:
    /// The chain parked at `t`; a new empty one (and `added` set) if none.
    /// The reference lasts until the next find_or_add or take.
    Chain& find_or_add(SimTime t, bool& added);
    /// Removes `t`'s entry and returns its chain. Precondition: present.
    Chain take(SimTime t);
    void clear();

   private:
    struct Entry {
      std::int64_t time_ns = kEmpty;  // kEmpty marks a free cell
      Chain chain;
    };
    static constexpr std::int64_t kEmpty = -1;  // event times are >= 0

    [[nodiscard]] std::size_t home(std::int64_t time_ns) const;
    void grow();

    std::vector<Entry> cells_;  // power-of-two size, or empty
    std::size_t count_ = 0;
    int shift_ = 64;  // 64 - log2(cells_.size())
  };

  /// Takes a free slot (or a new one) and stores `cb` in it, unlinked.
  std::uint32_t take_slot(const Callback& cb);
  /// Appends `slot` to `chain`.
  void append(Chain& chain, std::uint32_t slot);
  /// The parked chain at `t`, parking an empty one in the index and the
  /// scheduler if `t` has none yet.
  Chain& chain_at(SimTime t);
  /// Moves every pending entry onto a scheduler of `kind`.
  void migrate_to(SchedulerKind kind);

  // One entry per distinct pending time other than current_time_.
  std::unique_ptr<Scheduler> impl_;
  TimeIndex index_;
  bool pinned_ = false;  // force_scheduler() disables auto-migration
  // The chain being drained. Its time is below every time in the scheduler,
  // which never holds current_time_ itself; it may be empty.
  SimTime current_time_ = SimTime::origin();
  Chain current_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNil;  // free slots, linked through Slot::next
  std::uint64_t next_seq_ = 1;      // SchedEntry::seq of the next parked chain
  std::size_t count_ = 0;
  std::size_t peak_count_ = 0;
  // High-water mark of popped event times; pop() checks monotonicity
  // against it (IOTSIM_CHECK) — the kernel's core ordering invariant.
  SimTime last_popped_ = SimTime::origin();
};

}  // namespace iotsim::sim
