#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace iotsim::sim {

Simulator::~Simulator() {
  // Pending events may reference coroutine frames; drop them before the
  // frames are destroyed with processes_.
  queue_.clear();
}

void Simulator::at(SimTime t, EventQueue::Callback cb) {
  assert(t >= now_ && "cannot schedule into the past");
  queue_.schedule(t, std::move(cb));
}

void Simulator::after(Duration d, EventQueue::Callback cb) {
  assert(!d.is_negative());
  at(now_ + d, std::move(cb));
}

void Simulator::launch(const Task<void>& task) {
  assert(task.valid());
  auto handle = task.handle();
  handle.promise().sim = this;
  at(now_, [handle] { handle.resume(); });
}

void Simulator::spawn(Task<void> task) {
  launch(task);
  processes_.push_back(std::move(task));
}

void Simulator::advance_to(SimTime t) {
  assert(t >= now_);
  now_ = t;
}

void Simulator::run() { dispatch_loop(SimTime::infinite(), /*settle_at_limit=*/false); }

void Simulator::run_until(SimTime deadline) { dispatch_loop(deadline, /*settle_at_limit=*/true); }

void Simulator::drain_until(SimTime horizon) {
  dispatch_loop(horizon, /*settle_at_limit=*/false);
}

void Simulator::dispatch_loop(SimTime limit, bool settle_at_limit) {
  assert(!running_ && "re-entrant run()");
  running_ = true;
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty()) {
    if (queue_.next_time() > limit) {
      if (settle_at_limit) advance_to(limit);
      running_ = false;
      return;
    }
    auto ev = queue_.pop();
    advance_to(ev.time);
    ev.callback();
    ++dispatched_;
  }
  if (settle_at_limit && queue_.empty() && limit != SimTime::infinite() && now_ < limit &&
      !stop_requested_) {
    advance_to(limit);
  }
  running_ = false;
}

SimulatorStats Simulator::stats() const {
  return SimulatorStats{
      .events_dispatched = dispatched_,
      .pending_events = queue_.size(),
      .peak_queue_depth = queue_.peak_size(),
      .scheduler = queue_.scheduler_kind(),
  };
}

std::size_t Simulator::live_processes() const {
  return static_cast<std::size_t>(
      std::count_if(processes_.begin(), processes_.end(),
                    [](const Task<void>& t) { return t.valid() && !t.done(); }));
}

bool Simulator::all_processes_done() const { return live_processes() == 0; }

void Simulator::check_processes() const {
  for (const auto& t : processes_) {
    if (t.done()) t.check();
  }
}

}  // namespace iotsim::sim
