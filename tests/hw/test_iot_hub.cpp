#include "hw/iot_hub.h"

#include <gtest/gtest.h>

#include "energy/energy_report.h"
#include "sim/simulator.h"
#include "trace/power_trace.h"

namespace iotsim::hw {
namespace {

using energy::Routine;
using sim::Duration;
using sim::Task;

TEST(IotHub, IdleHubDrawsOnlyFloorPower) {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  IotHub hub{sim, acct, default_hub_spec()};
  auto p = [&]() -> Task<void> { co_await sim::Delay{Duration::sec(10)}; };
  sim.spawn(p());
  sim.run();
  hub.flush_power();

  const auto report = energy::EnergyReport::from_accountant(acct, Duration::sec(10));
  const auto& spec = hub.spec();
  const double expected_idle_w = spec.cpu.deep_sleep_w + spec.mcu.sleep_w +
                                 spec.main_board_base_w + spec.mcu_board_base_w;
  EXPECT_NEAR(report.average_watts(), expected_idle_w, 1e-9);
  // Everything is attributed to Idle.
  EXPECT_NEAR(report.joules(Routine::kIdle), report.total_joules(), 1e-12);
}

TEST(IotHub, TransferOccupiesCpuMcuAndLink) {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  IotHub hub{sim, acct, default_hub_spec()};
  double done_at = -1.0;
  auto p = [&]() -> Task<void> {
    co_await hub.transfer_to_cpu(12000, Routine::kDataTransfer);
    done_at = sim.now().to_ms();
  };
  sim.spawn(p());
  sim.run();
  hub.flush_power();

  const double expected_ms = hub.spec().transfer_time(12000).to_ms();
  // Both processors start asleep; the slower wake (CPU deep, 10 ms) gates
  // the start of the joint transfer.
  EXPECT_NEAR(done_at, expected_ms + hub.spec().cpu.deep_wake_latency.to_ms(), 1e-6);

  // CPU and MCU busy times match the transfer duration.
  EXPECT_NEAR(acct.busy_time(0, Routine::kDataTransfer).to_ms(), expected_ms, 1e-6);
  EXPECT_NEAR(acct.busy_time(1, Routine::kDataTransfer).to_ms(), expected_ms, 1e-6);
}

TEST(IotHub, PioBusesAreStableAndTraced) {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  IotHub hub{sim, acct, default_hub_spec()};
  Bus& a = hub.add_pio_bus("accel");
  Bus& b = hub.add_pio_bus("sound");
  EXPECT_EQ(a.name(), "pio_accel");
  EXPECT_EQ(b.name(), "pio_sound");

  trace::PowerTrace trace;
  hub.attach_trace(trace);
  auto p = [&]() -> Task<void> {
    co_await a.occupy(Duration::ms(10), Routine::kDataCollection);
  };
  sim.spawn(p());
  sim.run();
  hub.flush_power();
  EXPECT_FALSE(trace.segments().empty());
}

TEST(IotHub, ConservationAcrossAllComponents) {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  IotHub hub{sim, acct, default_hub_spec()};
  auto p = [&]() -> Task<void> {
    co_await hub.cpu().execute(Duration::ms(50), Routine::kComputation);
    co_await hub.transfer_to_cpu(1000, Routine::kDataTransfer);
    co_await hub.mcu().execute(Duration::ms(20), Routine::kDataCollection);
  };
  sim.spawn(p());
  sim.run();
  hub.flush_power();

  const auto elapsed = sim.now() - sim::SimTime::origin();
  const auto report = energy::EnergyReport::from_accountant(acct, elapsed);
  double routine_sum = 0.0;
  for (Routine r : energy::kAllRoutines) routine_sum += report.joules(r);
  EXPECT_NEAR(routine_sum, report.total_joules(), 1e-9);
  EXPECT_NEAR(report.total_joules(), acct.total_joules(), 1e-9);
}

}  // namespace
}  // namespace iotsim::hw
