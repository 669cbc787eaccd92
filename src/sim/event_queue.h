// A deterministic pending-event set for the discrete-event kernel.
//
// Events at equal timestamps fire in insertion order (FIFO tie-break), which
// makes multi-component simulations reproducible run to run.
//
// Ordering is delegated to a pluggable sim::Scheduler: a binary heap by
// default, migrating automatically to a bucketed CalendarQueue once the
// live population crosses kCalendarSwitchThreshold (fleet pressure). Both
// yield the identical pop sequence, so the switch never changes results.
//
// Callbacks live in a slab of slots reused through a free list; each
// scheduler entry carries its slot index, so reaching an event's callback
// is an index, not a lookup, and a callback is stored inline without
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

  [[nodiscard]] bool empty() const { return impl_->empty(); }
  [[nodiscard]] std::size_t size() const { return impl_->size(); }
  /// High-water mark of the pending event population.
  [[nodiscard]] std::size_t peak_size() const { return peak_count_; }

  /// Time of the earliest pending event; SimTime::infinite() when empty.
  [[nodiscard]] SimTime next_time() {
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
  /// Moves every pending entry onto a scheduler of `kind`.
  void migrate_to(SchedulerKind kind);

  std::unique_ptr<Scheduler> impl_;
  bool pinned_ = false;  // force_scheduler() disables auto-migration
  // Callbacks live beside the scheduler so SchedEntry stays trivially
  // movable; an entry's slot stays occupied until the entry leaves the
  // scheduler, so a slot is never referenced by two entries.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t peak_count_ = 0;
  // High-water mark of popped event times; pop() checks monotonicity
  // against it (IOTSIM_CHECK) — the kernel's core ordering invariant.
  SimTime last_popped_ = SimTime::origin();
};

}  // namespace iotsim::sim
