#include "energy/power_state_machine.h"

#include <gtest/gtest.h>

#include "energy/energy_report.h"
#include "sim/simulator.h"

namespace iotsim::energy {
namespace {

using sim::Duration;
using sim::Simulator;
using sim::Task;

struct Fixture {
  Simulator sim;
  EnergyAccountant acct;
  ComponentId id = acct.register_component("dev");
  PowerStateMachine psm{sim,
                        acct,
                        id,
                        {{"sleep", 0.1}, {"active", 2.0}},
                        0};
};

TEST(PowerStateMachine, IntegratesAcrossStateChanges) {
  Fixture f;
  auto proc = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(500)};  // 0.5 s asleep
    f.psm.set(1, Routine::kComputation);
    co_await sim::Delay{Duration::ms(250)};  // 0.25 s active
    f.psm.set(0, Routine::kIdle);
    co_await sim::Delay{Duration::ms(250)};
    f.psm.flush();
  };
  f.sim.spawn(proc());
  f.sim.run();
  EXPECT_NEAR(f.acct.joules(f.id, Routine::kComputation), 0.5, 1e-12);
  EXPECT_NEAR(f.acct.joules(f.id, Routine::kIdle), 0.1 * 0.75, 1e-12);
  EXPECT_NEAR(f.acct.component_joules(f.id), 0.575, 1e-12);
}

TEST(PowerStateMachine, RedundantSetIsNoop) {
  Fixture f;
  auto proc = [&]() -> Task<void> {
    f.psm.set(1, Routine::kComputation);
    co_await sim::Delay{Duration::ms(100)};
    f.psm.set(1, Routine::kComputation);  // no-op, segment stays open
    co_await sim::Delay{Duration::ms(100)};
    f.psm.flush();
  };
  int segments = 0;
  f.psm.add_listener([&](const PowerSegment&) { ++segments; });
  f.sim.spawn(proc());
  f.sim.run();
  EXPECT_EQ(segments, 1);  // single merged segment
  EXPECT_NEAR(f.acct.joules(f.id, Routine::kComputation), 0.4, 1e-12);
}

TEST(PowerStateMachine, RoutineChangeSplitsAttribution) {
  Fixture f;
  auto proc = [&]() -> Task<void> {
    f.psm.set(1, Routine::kInterrupt);
    co_await sim::Delay{Duration::ms(100)};
    f.psm.set(1, Routine::kDataTransfer);  // same state, new routine
    co_await sim::Delay{Duration::ms(300)};
    f.psm.flush();
  };
  f.sim.spawn(proc());
  f.sim.run();
  EXPECT_NEAR(f.acct.joules(f.id, Routine::kInterrupt), 0.2, 1e-12);
  EXPECT_NEAR(f.acct.joules(f.id, Routine::kDataTransfer), 0.6, 1e-12);
}

TEST(PowerStateMachine, EachStateBooksItsOwnWatts) {
  Fixture f;
  auto proc = [&]() -> Task<void> {
    f.psm.set(1, Routine::kComputation);  // active, 2 W
    co_await sim::Delay{Duration::ms(100)};
    f.psm.set(0, Routine::kComputation);  // sleep, 0.1 W
    co_await sim::Delay{Duration::ms(100)};
    f.psm.flush();
  };
  f.sim.spawn(proc());
  f.sim.run();
  EXPECT_NEAR(f.acct.joules(f.id, Routine::kComputation), 2.0 * 0.1 + 0.1 * 0.1, 1e-12);
}

TEST(PowerStateMachine, ListenerSeesSegments) {
  Fixture f;
  std::vector<PowerSegment> seen;
  f.psm.add_listener([&](const PowerSegment& s) { seen.push_back(s); });
  auto proc = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(10)};
    f.psm.set(1, Routine::kComputation);
    co_await sim::Delay{Duration::ms(20)};
    f.psm.flush();
  };
  f.sim.spawn(proc());
  f.sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0].watts, 0.1);
  EXPECT_DOUBLE_EQ(seen[1].watts, 2.0);
  EXPECT_EQ(seen[1].begin, sim::SimTime::origin() + Duration::ms(10));
  EXPECT_EQ(seen[1].end, sim::SimTime::origin() + Duration::ms(30));
}

TEST(EnergyReport, ConservationInvariantHolds) {
  Fixture f;
  auto proc = [&]() -> Task<void> {
    f.psm.set(1, Routine::kDataCollection);
    co_await sim::Delay{Duration::ms(123)};
    f.psm.set(0, Routine::kDataTransfer);
    co_await sim::Delay{Duration::ms(456)};
    f.psm.set(1, Routine::kComputation);
    co_await sim::Delay{Duration::ms(77)};
    f.psm.flush();
  };
  f.sim.spawn(proc());
  f.sim.run();
  const auto report =
      EnergyReport::from_accountant(f.acct, f.sim.now() - sim::SimTime::origin());
  double routine_sum = 0.0;
  for (Routine r : kAllRoutines) routine_sum += report.joules(r);
  EXPECT_NEAR(routine_sum, report.total_joules(), 1e-12);
  EXPECT_NEAR(report.total_joules(), f.acct.total_joules(), 1e-12);
}

}  // namespace
}  // namespace iotsim::energy
