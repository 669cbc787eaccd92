// The MCU→CPU interrupt path (§II-A steps 1–3).
//
// Each app gets its own logical line. Raising a line costs the MCU a short
// busy window; servicing costs the CPU the dispatch sequence the paper
// describes (priority check, ack, context switch). Wake-from-sleep latency
// and energy are paid by the CPU's Processor model when it was allowed to
// sleep while waiting.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "energy/routine.h"
#include "hw/processor.h"
#include "sim/process.h"
#include "sim/sim_time.h"

namespace iotsim::hw {

using IrqLine = std::size_t;

class InterruptController {
 public:
  InterruptController(Processor& cpu, Processor& mcu, sim::Duration raise_cost,
                      sim::Duration dispatch_cost);

  [[nodiscard]] IrqLine allocate_line(std::string name);

  /// MCU side: asserts `line` (MCU busy for the raise cost, then the CPU
  /// waiter is signalled).
  [[nodiscard]] sim::Task<void> raise(IrqLine line);

  /// CPU side: waits until `line` has a pending interrupt — sleeping as deep
  /// as `policy` allows, with idle energy attributed to `wait_attr` — then
  /// runs the dispatch sequence on the CPU (kInterrupt).
  /// `expected_gap` is the runtime's estimate of the wait, used for the
  /// sleep break-even decision.
  [[nodiscard]] sim::Task<void> wait_and_dispatch(IrqLine line, SleepPolicy policy,
                                                  energy::Routine wait_attr,
                                                  sim::Duration expected_gap);

  [[nodiscard]] std::uint64_t raised_count() const { return raised_; }

 private:
  struct Line {
    std::string name;
    sim::Signal signal;
    int pending = 0;
  };

  Processor& cpu_;
  Processor& mcu_;
  sim::Duration raise_cost_;
  sim::Duration dispatch_cost_;
  // deque: Line addresses must stay stable while coroutines hold references
  // across suspension points.
  std::deque<Line> lines_;
  std::uint64_t raised_ = 0;
};

}  // namespace iotsim::hw
