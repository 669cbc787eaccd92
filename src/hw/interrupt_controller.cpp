#include "hw/interrupt_controller.h"

#include <utility>

namespace iotsim::hw {

InterruptController::InterruptController(Processor& cpu, Processor& mcu, sim::Duration raise_cost,
                                         sim::Duration dispatch_cost)
    : cpu_{cpu}, mcu_{mcu}, raise_cost_{raise_cost}, dispatch_cost_{dispatch_cost} {}

IrqLine InterruptController::allocate_line(std::string name) {
  lines_.push_back(Line{std::move(name), {}, 0});
  return lines_.size() - 1;
}

sim::Task<void> InterruptController::raise(IrqLine line) {
  Line& ln = lines_.at(line);
  co_await mcu_.execute(raise_cost_, energy::Routine::kInterrupt);
  ++ln.pending;
  ++raised_;
  ln.signal.notify_all();
}

sim::Task<void> InterruptController::wait_and_dispatch(IrqLine line, SleepPolicy policy,
                                                       energy::Routine wait_attr,
                                                       sim::Duration expected_gap) {
  Line& ln = lines_.at(line);
  while (ln.pending == 0) {
    co_await cpu_.wait_signal(ln.signal, policy, wait_attr, expected_gap);
  }
  --ln.pending;
  co_await cpu_.execute(dispatch_cost_, energy::Routine::kInterrupt);
}

}  // namespace iotsim::hw
