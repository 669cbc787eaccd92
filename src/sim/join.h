// Structured concurrency helper: run two tasks concurrently and wait for
// both (e.g. the CPU driving its NIC while the wire clocks bits). The join
// owns its children: their frames, and the latch they arrive at, live in
// the when_all frame and are freed when the join completes.
#pragma once

#include "sim/process.h"
#include "sim/simulator.h"

namespace iotsim::sim {

/// Count-down latch for coroutines.
class JoinCounter {
 public:
  explicit JoinCounter(int count) : remaining_{count} {}

  void arrive() {
    if (--remaining_ == 0) done_.notify_all();
  }

  [[nodiscard]] Task<void> wait() {
    if (remaining_ > 0) co_await done_.wait();
  }

  [[nodiscard]] int remaining() const { return remaining_; }

 private:
  int remaining_;
  Signal done_;
};

/// Runs `a` and `b` concurrently; completes when both have finished. Each
/// child starts from its own event at now(), `a` first. A child that throws
/// still counts as finished; once both are done, the first child's
/// exception (in argument order) is rethrown to the awaiting coroutine.
/// Nest calls to join more than two tasks.
[[nodiscard]] Task<void> when_all(Simulator& sim, Task<void> a, Task<void> b);

}  // namespace iotsim::sim
