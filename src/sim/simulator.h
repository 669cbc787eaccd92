// The discrete-event simulation kernel.
//
// Single-threaded: events pop in (time, insertion) order; coroutine processes
// resume from event callbacks. The kernel knows nothing about hardware — the
// hw/ layer builds component models on top of it.
//
// Introspection goes through one snapshot, Simulator::stats(), instead of
// scattered getters: events dispatched, pending population, the queue's
// high-water mark, and which scheduler (binary heap vs calendar queue) is
// ordering events.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/sim_time.h"

namespace iotsim::sim {

/// A point-in-time snapshot of kernel counters. Values are comparable
/// across runs of the same scenario: `events_dispatched` is deterministic;
/// `peak_queue_depth` and `scheduler` depend on execution shape (sharding
/// splits the population) and are diagnostics, not results.
struct SimulatorStats {
  std::uint64_t events_dispatched = 0;
  std::size_t pending_events = 0;
  std::size_t peak_queue_depth = 0;
  SchedulerKind scheduler = SchedulerKind::kBinaryHeap;
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules a raw callback at absolute time `t` (must not precede now()).
  void at(SimTime t, EventQueue::Callback cb);
  /// Schedules a raw callback `d` from now.
  void after(Duration d, EventQueue::Callback cb);

  /// Schedules the start of `task` at now() without taking ownership: the
  /// caller keeps the frame alive until the task is done (when_all holds
  /// its children this way).
  void launch(const Task<void>& task);
  /// Takes ownership of a top-level process and launches it.
  void spawn(Task<void> task);

  /// Runs until the event queue drains.
  void run();

  /// Runs until the queue drains or simulated time would pass `deadline`;
  /// now() is advanced to `deadline` if the horizon is hit.
  void run_until(SimTime deadline);

  /// Dispatches every event with time <= `horizon`, leaving later events
  /// pending. Unlike run_until, now() is NOT advanced past the last
  /// dispatched event, so the final span of a windowed (barrier-stepped)
  /// run matches an uninterrupted run() exactly. Resumable: call again with
  /// a later horizon to continue.
  void drain_until(SimTime horizon);

  /// Kernel counters as one coherent snapshot.
  [[nodiscard]] SimulatorStats stats() const;

  [[nodiscard]] std::size_t live_processes() const;

  /// True if every spawned process has run to completion.
  [[nodiscard]] bool all_processes_done() const;

  /// Rethrows the first exception stored by any completed process.
  void check_processes() const;

 private:
  void advance_to(SimTime t);
  /// Shared dispatch loop: runs events with time <= `limit`; when
  /// `settle_at_limit`, an exhausted/overshooting queue advances now() to
  /// `limit` (run_until semantics) instead of staying at the last event
  /// (drain_until semantics).
  void dispatch_loop(SimTime limit, bool settle_at_limit);

  SimTime now_ = SimTime::origin();
  EventQueue queue_;
  std::vector<Task<void>> processes_;
  std::uint64_t dispatched_ = 0;
  bool running_ = false;
};

}  // namespace iotsim::sim
