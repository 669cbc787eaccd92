// Deeper Processor-policy tests: policy_for_gap, IdleConstraint semantics,
// the busy/wait power split, and the hub's DMA transfer path.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "energy/energy_accountant.h"
#include "hw/cpu.h"
#include "hw/iot_hub.h"
#include "hw/mcu.h"
#include "hw/processor.h"
#include "sim/simulator.h"

namespace iotsim::hw {
namespace {

using energy::EnergyAccountant;
using energy::Routine;
using sim::Duration;
using sim::Task;

ProcessorSpec split_spec() {
  ProcessorSpec spec;
  spec.active_w = 2.0;  // stalled
  spec.busy_w = 3.0;    // executing
  spec.nominal_mips = 1000.0;
  spec.sleep_modes = {
      SleepMode{0.5, Duration::from_ms(1.0), 1.0},
      SleepMode{0.1, Duration::from_ms(10.0), 1.0},
  };
  return spec;
}

TEST(PolicyForGap, ChoosesDeepestAffordableMode) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Processor p{sim, acct, "cpu", split_spec()};
  // Break-evens: light = 1·1ms/(2−0.5) = 0.667 ms; deep = 1·10ms/1.9 = 5.26 ms.
  EXPECT_EQ(p.policy_for_gap(Duration::from_ms(0.5)), SleepPolicy::kBusyWait);
  EXPECT_EQ(p.policy_for_gap(Duration::from_ms(1.0)), SleepPolicy::kLightSleep);
  EXPECT_EQ(p.policy_for_gap(Duration::from_ms(5.0)), SleepPolicy::kLightSleep);
  EXPECT_EQ(p.policy_for_gap(Duration::from_ms(6.0)), SleepPolicy::kDeepSleep);
  // Cap honoured.
  EXPECT_EQ(p.policy_for_gap(Duration::sec(10), SleepPolicy::kLightSleep),
            SleepPolicy::kLightSleep);
  EXPECT_EQ(p.policy_for_gap(Duration::sec(10), SleepPolicy::kBusyWait),
            SleepPolicy::kBusyWait);
}

TEST(PolicyForGap, SwitchesExactlyAtEachModesBreakEven) {
  // The processor computes its break-evens once; a gap a nanosecond either
  // side of each must pick what the spec's formula gives at that gap.
  auto formula = [](const ProcessorSpec& spec, Duration gap, SleepPolicy cap) {
    auto effective = SleepPolicy::kBusyWait;
    const auto limit =
        std::min<std::size_t>(static_cast<std::size_t>(cap), spec.sleep_modes.size());
    for (std::size_t i = 0; i < limit; ++i) {
      if (gap >= spec.sleep_modes[i].breakeven(spec.active_w)) {
        effective = static_cast<SleepPolicy>(i + 1);
      }
    }
    return effective;
  };
  const HubSpec hub = default_hub_spec();
  const std::vector<ProcessorSpec> specs = {split_spec(),
                                            make_cpu_processor_spec(hub.cpu, 1000.0),
                                            make_mcu_processor_spec(hub.mcu, 80.0)};
  for (const ProcessorSpec& spec : specs) {
    sim::Simulator sim;
    EnergyAccountant acct;
    Processor p{sim, acct, "p", spec};
    std::vector<Duration> gaps = {Duration::zero(), Duration::sec(100)};
    for (const SleepMode& mode : spec.sleep_modes) {
      const Duration b = mode.breakeven(spec.active_w);
      gaps.insert(gaps.end(), {b - Duration::ns(1), b, b + Duration::ns(1)});
    }
    for (Duration gap : gaps) {
      for (auto cap :
           {SleepPolicy::kBusyWait, SleepPolicy::kLightSleep, SleepPolicy::kDeepSleep}) {
        EXPECT_EQ(p.policy_for_gap(gap, cap), formula(spec, gap, cap)) << gap.to_string();
      }
    }
  }
}

TEST(IdleConstraint, PinsProcessorWhileAlive) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Processor p{sim, acct, "cpu", split_spec()};
  auto proc = [&]() -> Task<void> {
    {
      auto pin = p.constrain_idle(SleepPolicy::kBusyWait, Routine::kDataTransfer);
      co_await sim::Delay{Duration::ms(100)};  // pinned: active wait, 2 W
      pin.release();
    }
    co_await sim::Delay{Duration::ms(100)};  // unpinned: deepest sleep, 0.1 W
  };
  sim.spawn(proc());
  sim.run();
  p.power().flush();
  EXPECT_NEAR(acct.joules(0, Routine::kDataTransfer), 2.0 * 0.1, 1e-9);
  EXPECT_NEAR(acct.joules(0, Routine::kIdle), 0.1 * 0.1, 1e-9);
}

TEST(IdleConstraint, ReleaseIsIdempotentAndMoveSafe) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Processor p{sim, acct, "cpu", split_spec()};
  auto proc = [&]() -> Task<void> {
    auto pin = p.constrain_idle(SleepPolicy::kLightSleep, Routine::kComputation);
    auto moved = std::move(pin);
    moved.release();
    moved.release();  // no double-erase
    co_await sim::Delay{Duration::ms(10)};
  };
  sim.spawn(proc());
  sim.run();
  SUCCEED();
}

TEST(IdleConstraint, OverlappingWaitPicksTheSameStatesInEitherReleaseOrder) {
  // Power-state ids: 1 is active wait, 4 the deeper of split_spec's two
  // sleep modes. A standing kBusyWait/kDataTransfer constraint overlaps a
  // 20 ms kDeepSleep/kComputation wait (t = 0.5..20.5 ms); the constraint
  // is released at 5 ms (inside the wait) or at 30 ms (after it).
  using Step = std::pair<energy::PowerStateMachine::StateId, Routine>;
  constexpr energy::PowerStateMachine::StateId kWaitState = 1;
  constexpr energy::PowerStateMachine::StateId kDeepState = 4;
  for (const bool release_inside_wait : {true, false}) {
    sim::Simulator sim;
    EnergyAccountant acct;
    Processor p{sim, acct, "cpu", split_spec()};
    std::vector<Step> steps;
    auto pinner = [&]() -> Task<void> {
      auto pin = p.constrain_idle(SleepPolicy::kBusyWait, Routine::kDataTransfer);
      co_await sim::Delay{Duration::ms(release_inside_wait ? 5 : 30)};
      pin.release();
    };
    auto waiter = [&]() -> Task<void> {
      co_await sim::Delay{Duration::us(500)};
      co_await p.wait(Duration::ms(20), SleepPolicy::kDeepSleep, Routine::kComputation);
    };
    auto observer = [&]() -> Task<void> {
      for (const auto at_us : {250, 1000, 10000, 25000, 40000}) {
        co_await sim::Delay{Duration::us(at_us) - (sim.now() - sim::SimTime::origin())};
        steps.emplace_back(p.power().state(), p.power().routine());
      }
    };
    sim.spawn(pinner());
    sim.spawn(waiter());
    sim.spawn(observer());
    sim.run();
    const std::vector<Step> expected =
        release_inside_wait ? std::vector<Step>{{kWaitState, Routine::kDataTransfer},
                                                {kWaitState, Routine::kComputation},
                                                {kDeepState, Routine::kComputation},
                                                {kDeepState, Routine::kIdle},
                                                {kDeepState, Routine::kIdle}}
                            : std::vector<Step>{{kWaitState, Routine::kDataTransfer},
                                                {kWaitState, Routine::kComputation},
                                                {kWaitState, Routine::kComputation},
                                                {kWaitState, Routine::kDataTransfer},
                                                {kDeepState, Routine::kIdle}};
    EXPECT_EQ(steps, expected) << "release_inside_wait=" << release_inside_wait;
  }
}

TEST(BusyWaitSplit, ExecutionDrawsMoreThanStall) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Processor p{sim, acct, "cpu", split_spec()};
  auto proc = [&]() -> Task<void> {
    co_await p.execute(Duration::ms(100), Routine::kComputation);
    co_await p.wait(Duration::ms(100), SleepPolicy::kBusyWait, Routine::kDataTransfer);
  };
  sim.spawn(proc());
  sim.run();
  p.power().flush();
  // Execute at busy_w = 3 W (plus the initial deep wake at 1 W for 10 ms);
  // stall at active_w = 2 W.
  EXPECT_NEAR(acct.joules(0, Routine::kComputation), 3.0 * 0.1 + 1.0 * 0.01, 1e-9);
  EXPECT_NEAR(acct.joules(0, Routine::kDataTransfer), 2.0 * 0.1, 1e-9);
}

TEST(DmaTransfer, CpuSleepsDuringWireTime) {
  sim::Simulator sim;
  EnergyAccountant acct;
  HubSpec spec = default_hub_spec();
  spec.dma_enabled = true;
  IotHub hub{sim, acct, spec};
  auto proc = [&]() -> Task<void> {
    // Big transfer: 12 KB ≈ 100 ms of wire time.
    co_await hub.transfer_to_cpu(12000, Routine::kDataTransfer);
  };
  sim.spawn(proc());
  sim.run();
  hub.flush_power();
  // CPU busy only for the DMA setup, not the wire time: its DataTransfer
  // bill is its wake, under 1 ms at busy power, and light sleep at most for
  // the rest of the transfer.
  EXPECT_LT(acct.joules(0, Routine::kDataTransfer),
            spec.cpu.transition_w * spec.cpu.deep_wake_latency.to_seconds() +
                spec.cpu.busy_w * sim::Duration::from_ms(1.0).to_seconds() +
                spec.cpu.light_sleep_w * spec.transfer_time(12000).to_seconds());
  // The MCU was never involved.
  EXPECT_NEAR(acct.joules(1, Routine::kDataTransfer), 0.0, 1e-12);
}

TEST(DmaTransfer, CheaperThanPioForBulk) {
  auto run_once = [](bool dma) {
    sim::Simulator sim;
    EnergyAccountant acct;
    HubSpec spec = default_hub_spec();
    spec.dma_enabled = dma;
    IotHub hub{sim, acct, spec};
    auto proc = [&]() -> Task<void> {
      co_await hub.transfer_to_cpu(24000, Routine::kDataTransfer);
    };
    sim.spawn(proc());
    sim.run();
    hub.flush_power();
    return acct.total_joules();
  };
  EXPECT_LT(run_once(true), run_once(false) * 0.7);
}

}  // namespace
}  // namespace iotsim::hw
