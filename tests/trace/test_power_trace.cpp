#include "trace/power_trace.h"

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace iotsim::trace {
namespace {

using energy::EnergyAccountant;
using energy::PowerStateMachine;
using energy::Routine;
using sim::Duration;
using sim::SimTime;

struct Fixture {
  sim::Simulator sim;
  EnergyAccountant acct;
  energy::ComponentId id = acct.register_component("dev");
  PowerStateMachine psm{sim, acct, id, {{"off", 0.0}, {"on", 3.0}}, 0};
  PowerTrace trace;

  Fixture() { trace.attach(psm, "dev"); }

  void run_square_wave() {
    auto proc = [this]() -> sim::Task<void> {
      for (int i = 0; i < 3; ++i) {
        psm.set(1, Routine::kComputation);
        co_await sim::Delay{Duration::ms(10)};
        psm.set(0, Routine::kIdle);
        co_await sim::Delay{Duration::ms(10)};
      }
      psm.flush();
    };
    sim.spawn(proc());
    sim.run();
  }
};

TEST(PowerTrace, RecordsSegments) {
  Fixture f;
  f.run_square_wave();
  EXPECT_EQ(f.trace.segments().size(), 6u);
}

TEST(PowerTrace, JoulesBetweenMatchesAccountant) {
  Fixture f;
  f.run_square_wave();
  const double j = f.trace.joules_between(SimTime::origin(), f.sim.now());
  EXPECT_NEAR(j, f.acct.component_joules(f.id), 1e-12);
  EXPECT_NEAR(j, 3.0 * 0.030, 1e-12);  // 3 on-pulses of 10 ms at 3 W
}

TEST(PowerTrace, JoulesBetweenClipsToWindow) {
  Fixture f;
  f.run_square_wave();
  // Window covering half of the first pulse.
  const double j =
      f.trace.joules_between(SimTime::origin(), SimTime::origin() + Duration::ms(5));
  EXPECT_NEAR(j, 3.0 * 0.005, 1e-12);
}

TEST(PowerTrace, TimelineRendersRows) {
  Fixture f;
  f.run_square_wave();
  const std::string art = f.trace.render_timeline(SimTime::origin(), f.sim.now(), 60);
  EXPECT_NE(art.find("dev"), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);  // active periods visible
}


TEST(PowerTrace, ComponentJoulesBetween) {
  Fixture f;
  f.run_square_wave();
  const double j = f.trace.component_joules_between(
      f.id, SimTime::origin(), SimTime::origin() + Duration::ms(15));
  // First pulse (10 ms at 3 W) plus 5 ms off.
  EXPECT_NEAR(j, 3.0 * 0.010, 1e-12);
}

TEST(PowerTrace, TimelineUsesColumnAverages) {
  // A 1 ms spike inside a 100 ms window must still darken its column when
  // columns are 10 ms wide (instantaneous sampling would miss it).
  Fixture f;
  auto proc = [&]() -> sim::Task<void> {
    co_await sim::Delay{Duration::ms(42)};
    f.psm.set(1, Routine::kComputation);
    co_await sim::Delay{Duration::ms(1)};
    f.psm.set(0, Routine::kIdle);
    co_await sim::Delay{Duration::ms(57)};
    f.psm.flush();
  };
  f.sim.spawn(proc());
  f.sim.run();
  const std::string art =
      f.trace.render_timeline(SimTime::origin(), f.sim.now(), 10);
  // The row must contain at least one non-space glyph.
  const auto row_start = art.find('|');
  const auto row_end = art.find('|', row_start + 1);
  const std::string row = art.substr(row_start + 1, row_end - row_start - 1);
  EXPECT_NE(row.find_first_not_of(' '), std::string::npos) << art;
}

}  // namespace
}  // namespace iotsim::trace
