#include "hw/interrupt_controller.h"

#include <gtest/gtest.h>

#include "energy/energy_accountant.h"
#include "sim/simulator.h"

namespace iotsim::hw {
namespace {

using energy::EnergyAccountant;
using energy::Routine;
using sim::Duration;
using sim::Task;

struct Fixture {
  sim::Simulator sim;
  EnergyAccountant acct;
  Processor cpu{sim, acct, "cpu",
                ProcessorSpec{2.0, 0.0, {SleepMode{0.5, Duration::from_ms(1.0), 1.0}}, 1000.0}};
  Processor mcu{sim, acct, "mcu", ProcessorSpec{1.0, 0.0, {}, 100.0}};
  InterruptController irq{cpu, mcu, Duration::from_us(10), Duration::from_us(100)};
};

TEST(InterruptController, RaiseThenDispatchRoundTrip) {
  Fixture f;
  const IrqLine line = f.irq.allocate_line("accel");
  double dispatched_at = -1.0;
  auto cpu_side = [&]() -> Task<void> {
    co_await f.irq.wait_and_dispatch(line, SleepPolicy::kBusyWait, Routine::kDataTransfer,
                                     Duration::ms(1));
    dispatched_at = f.sim.now().to_ms();
  };
  auto mcu_side = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(5)};
    co_await f.irq.raise(line);
  };
  f.sim.spawn(cpu_side());
  f.sim.spawn(mcu_side());
  f.sim.run();
  EXPECT_EQ(f.irq.raised_count(), 1u);
  // 5 ms delay + 10 us raise + 100 us dispatch (CPU was busy-waiting: no
  // wake latency).
  EXPECT_NEAR(dispatched_at, 5.11, 1e-9);
}

TEST(InterruptController, PendingInterruptDispatchesWithoutWaiting) {
  Fixture f;
  const IrqLine line = f.irq.allocate_line("l");
  double dispatched_at = -1.0;
  auto mcu_side = [&]() -> Task<void> { co_await f.irq.raise(line); };
  auto cpu_side = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(10)};  // arrive after the raise
    co_await f.irq.wait_and_dispatch(line, SleepPolicy::kBusyWait, Routine::kDataTransfer,
                                     Duration::ms(1));
    dispatched_at = f.sim.now().to_ms();
  };
  f.sim.spawn(mcu_side());
  f.sim.spawn(cpu_side());
  f.sim.run();
  // No signal wait happens (the interrupt is already pending), but the CPU
  // idled asleep for the 10 ms and pays its 1 ms wake before dispatching.
  EXPECT_NEAR(dispatched_at, 11.1, 1e-9);
}

TEST(InterruptController, CountsManyInterrupts) {
  Fixture f;
  const IrqLine line = f.irq.allocate_line("l");
  constexpr int kN = 50;
  auto mcu_side = [&]() -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await sim::Delay{Duration::ms(1)};
      co_await f.irq.raise(line);
    }
  };
  auto cpu_side = [&]() -> Task<void> {
    for (int i = 0; i < kN; ++i) {
      co_await f.irq.wait_and_dispatch(line, SleepPolicy::kBusyWait, Routine::kDataTransfer,
                                       Duration::ms(1));
    }
  };
  f.sim.spawn(mcu_side());
  f.sim.spawn(cpu_side());
  f.sim.run();
  EXPECT_EQ(f.irq.raised_count(), static_cast<std::uint64_t>(kN));
  // Dispatch cost accrues on the CPU under kInterrupt.
  EXPECT_EQ(f.acct.busy_time(0, Routine::kInterrupt), Duration::us(100) * kN);
  // Raise cost accrues on the MCU under kInterrupt.
  EXPECT_EQ(f.acct.busy_time(1, Routine::kInterrupt), Duration::us(10) * kN);
}

TEST(InterruptController, SeparateLinesAreIndependent) {
  Fixture f;
  const IrqLine a = f.irq.allocate_line("a");
  const IrqLine b = f.irq.allocate_line("b");
  int a_handled = 0, b_handled = 0;
  auto mcu_side = [&]() -> Task<void> {
    co_await f.irq.raise(a);
    co_await f.irq.raise(a);
    co_await f.irq.raise(b);
  };
  auto cpu_a = [&]() -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await f.irq.wait_and_dispatch(a, SleepPolicy::kBusyWait, Routine::kDataTransfer,
                                       Duration::ms(1));
      ++a_handled;
    }
  };
  auto cpu_b = [&]() -> Task<void> {
    co_await f.irq.wait_and_dispatch(b, SleepPolicy::kBusyWait, Routine::kDataTransfer,
                                     Duration::ms(1));
    ++b_handled;
  };
  f.sim.spawn(mcu_side());
  f.sim.spawn(cpu_a());
  f.sim.spawn(cpu_b());
  f.sim.run();
  EXPECT_EQ(a_handled, 2);
  EXPECT_EQ(b_handled, 1);
}

TEST(InterruptController, SleepingCpuPaysWakeLatency) {
  Fixture f;
  const IrqLine line = f.irq.allocate_line("l");
  double dispatched_at = -1.0;
  auto cpu_side = [&]() -> Task<void> {
    co_await f.irq.wait_and_dispatch(line, SleepPolicy::kLightSleep, Routine::kDataTransfer,
                                     Duration::ms(100));
    dispatched_at = f.sim.now().to_ms();
  };
  auto mcu_side = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(50)};
    co_await f.irq.raise(line);
  };
  f.sim.spawn(cpu_side());
  f.sim.spawn(mcu_side());
  f.sim.run();
  // 50 ms + 10 us raise + 1 ms wake + 100 us dispatch.
  EXPECT_NEAR(dispatched_at, 51.11, 1e-9);
  EXPECT_EQ(f.cpu.wakeup_count(), 1u);
}

}  // namespace
}  // namespace iotsim::hw
