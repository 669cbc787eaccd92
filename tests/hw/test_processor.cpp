#include "hw/processor.h"

#include <gtest/gtest.h>

#include "energy/energy_accountant.h"
#include "sim/simulator.h"

namespace iotsim::hw {
namespace {

using energy::EnergyAccountant;
using energy::Routine;
using sim::Duration;
using sim::SimTime;
using sim::Task;

ProcessorSpec two_mode_spec() {
  ProcessorSpec spec;
  spec.active_w = 2.0;
  spec.nominal_mips = 1000.0;
  spec.sleep_modes = {
      SleepMode{0.5, Duration::from_ms(1.0), 1.0},   // light: breakeven 0.67 ms
      SleepMode{0.1, Duration::from_ms(10.0), 1.0},  // deep: breakeven 5.26 ms
  };
  return spec;
}

struct Fixture {
  sim::Simulator sim;
  EnergyAccountant acct;
  Processor proc{sim, acct, "cpu", two_mode_spec()};

  energy::ComponentId id() const { return 0; }
};

TEST(Processor, ExecuteChargesActiveBusy) {
  Fixture f;
  auto p = [&]() -> Task<void> {
    co_await f.proc.execute(Duration::ms(100), Routine::kComputation);
  };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  // Execution starts asleep (idle hub) so one deep wake precedes it.
  EXPECT_EQ(f.proc.wakeup_count(), 1u);
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kComputation),
              2.0 * 0.1 + 1.0 * 0.010,  // busy + wake transition
              1e-9);
  EXPECT_EQ(f.sim.now(), SimTime::origin() + Duration::ms(10) + Duration::ms(100));  // wake, run
}

TEST(Processor, BusyWaitPolicyKeepsActivePower) {
  Fixture f;
  auto p = [&]() -> Task<void> {
    // Wake it up first so the wait starts from active.
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
    co_await f.proc.wait(Duration::ms(100), SleepPolicy::kBusyWait, Routine::kDataTransfer);
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
  };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  // Waiting at full active power, attributed to DataTransfer, for the whole
  // 100 ms (after the 10 ms wake and the first 1 ms execute).
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kDataTransfer), 2.0 * 0.1, 1e-9);
  EXPECT_EQ(f.sim.now(), SimTime::origin() + Duration::ms(10 + 1 + 100 + 1));
  // No wake was needed for the second execute (still active).
  EXPECT_EQ(f.proc.wakeup_count(), 1u);
}

TEST(Processor, LightSleepPolicyDropsPower) {
  Fixture f;
  auto p = [&]() -> Task<void> {
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
    co_await f.proc.wait(Duration::ms(100), SleepPolicy::kLightSleep, Routine::kDataTransfer);
  };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kDataTransfer), 0.5 * 0.1, 1e-9);
}

TEST(Processor, DeepSleepPolicyDropsFurther) {
  Fixture f;
  auto p = [&]() -> Task<void> {
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
    co_await f.proc.wait(Duration::ms(100), SleepPolicy::kDeepSleep, Routine::kComputation);
  };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  // 1 ms busy at 2 W + initial wake 10 ms at 1 W + 100 ms deep at 0.1 W.
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kComputation), 0.002 + 0.01 + 0.01, 1e-9);
}

TEST(Processor, SubBreakevenGapDegradesToBusyWait) {
  Fixture f;
  auto p = [&]() -> Task<void> {
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
    // 0.5 ms < light-mode break-even (0.667 ms): must not sleep.
    co_await f.proc.wait(Duration::from_ms(0.5), SleepPolicy::kDeepSleep,
                         Routine::kDataTransfer);
  };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kDataTransfer), 2.0 * 0.0005, 1e-9);
}

TEST(Processor, MidBreakevenGapPicksLightNotDeep) {
  Fixture f;
  auto p = [&]() -> Task<void> {
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
    // 2 ms: above light break-even (0.667), below deep (5.26) → light.
    co_await f.proc.wait(Duration::ms(2), SleepPolicy::kDeepSleep, Routine::kDataTransfer);
  };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kDataTransfer), 0.5 * 0.002, 1e-9);
}

TEST(Processor, WakeLatencyDelaysExecution) {
  Fixture f;
  double finished_at = 0.0;
  auto p = [&]() -> Task<void> {
    // Starts deep asleep: pays 10 ms wake, then 5 ms work.
    co_await f.proc.execute(Duration::ms(5), Routine::kComputation);
    finished_at = f.sim.now().to_ms();
  };
  f.sim.spawn(p());
  f.sim.run();
  EXPECT_DOUBLE_EQ(finished_at, 15.0);
}

TEST(Processor, ConcurrentWaitersArbitrateToShallowest) {
  Fixture f;
  auto waiter = [&](SleepPolicy pol) -> Task<void> {
    co_await f.proc.wait(Duration::ms(100), pol, Routine::kDataTransfer);
  };
  f.sim.spawn(waiter(SleepPolicy::kDeepSleep));
  f.sim.spawn(waiter(SleepPolicy::kBusyWait));
  f.sim.run();
  f.proc.power().flush();
  // The busy-waiter pins the processor at active power for the full window.
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kDataTransfer), 2.0 * 0.1, 1e-9);
}

TEST(Processor, ExecutionsSerialize) {
  Fixture f;
  double done_a = 0.0, done_b = 0.0;
  auto p = [&](double& out) -> Task<void> {
    co_await f.proc.execute(Duration::ms(10), Routine::kComputation);
    out = f.sim.now().to_ms();
  };
  f.sim.spawn(p(done_a));
  f.sim.spawn(p(done_b));
  f.sim.run();
  // First pays the deep wake (10 ms) + 10 ms work; second queues behind it.
  EXPECT_DOUBLE_EQ(done_a, 20.0);
  EXPECT_DOUBLE_EQ(done_b, 30.0);
}

TEST(Processor, IdleHubSleepsDeepWithNoWaiters) {
  Fixture f;
  auto p = [&]() -> Task<void> { co_await sim::Delay{Duration::sec(1)}; };
  f.sim.spawn(p());
  f.sim.run();
  f.proc.power().flush();
  // Whole second in deepest mode, attributed Idle.
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kIdle), 0.1 * 1.0, 1e-9);
}

TEST(Processor, SignalWaitHonoursExpectedGapBreakeven) {
  Fixture f;
  sim::Signal sig;
  auto waiter = [&]() -> Task<void> {
    co_await f.proc.execute(Duration::ms(1), Routine::kComputation);
    co_await f.proc.wait_signal(sig, SleepPolicy::kLightSleep, Routine::kDataTransfer,
                                Duration::ms(50));
  };
  auto notifier = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(51)};
    sig.notify_all();
  };
  f.sim.spawn(waiter());
  f.sim.spawn(notifier());
  f.sim.run();
  f.proc.power().flush();
  // 50 ms (from t=11 after wake+exec... just check power dropped): the wait
  // spans t∈[11,51] at light-sleep power.
  EXPECT_NEAR(f.acct.joules(f.id(), Routine::kDataTransfer), 0.5 * 0.040, 1e-9);
}

}  // namespace
}  // namespace iotsim::hw
