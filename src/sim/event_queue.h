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
// allocating. An EventId is a generation-tagged slot handle: a stale id
// whose slot has since been reused fails the generation check.
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

/// Slot handle: bits 0-31 hold the slab slot, bits 32-62 its generation
/// (never 0).
using EventId = std::uint64_t;

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

  /// Live events beyond which the queue migrates from the binary heap to
  /// the calendar queue (one-way; see force_scheduler for tests).
  static constexpr std::size_t kCalendarSwitchThreshold = 4096;

  EventQueue();

  /// Schedules `cb` to run at absolute time `when`. Returns a handle that can
  /// be passed to `cancel`.
  EventId schedule(SimTime when, Callback cb);

  /// Marks a still-pending event as cancelled; its slot is freed when the
  /// entry reaches the front. Cancelling an already-fired, already-cancelled
  /// or unknown id is a harmless no-op.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }
  /// High-water mark of the live event population.
  [[nodiscard]] std::size_t peak_size() const { return peak_count_; }

  /// Time of the earliest live event; SimTime::infinite() when empty.
  [[nodiscard]] SimTime next_time();

  /// Removes and returns the earliest live event. Precondition: !empty().
  struct Popped {
    SimTime time;
    EventId id;
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
  enum class SlotState : std::uint8_t { kFree, kLive, kCancelled };

  struct Slot {
    Callback callback;
    std::uint32_t generation = 1;  // 31 bits, never 0; bumped on release
    SlotState state = SlotState::kFree;
  };

  [[nodiscard]] EventId id_of(std::uint32_t slot) const;
  /// Returns a slot to the free list and invalidates its ids.
  void release(std::uint32_t slot);
  /// The earliest live entry, after popping (and freeing the slots of)
  /// cancelled entries ahead of it. Precondition: live_count_ > 0.
  SchedEntry live_front();
  /// Moves every pending entry onto a scheduler of `kind`.
  void migrate_to(SchedulerKind kind);

  std::unique_ptr<Scheduler> impl_;
  bool pinned_ = false;  // force_scheduler() disables auto-migration
  // Callbacks live beside the scheduler so SchedEntry stays trivially
  // movable; an entry's slot stays occupied until the entry leaves the
  // scheduler, so a slot is never referenced by two entries.
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t peak_count_ = 0;
  // High-water mark of popped event times; pop() checks monotonicity
  // against it (IOTSIM_CHECK) — the kernel's core ordering invariant.
  SimTime last_popped_ = SimTime::origin();
};

}  // namespace iotsim::sim
