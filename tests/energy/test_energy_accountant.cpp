#include "energy/energy_accountant.h"

#include <gtest/gtest.h>

namespace iotsim::energy {
namespace {

using sim::Duration;
using sim::SimTime;

PowerSegment seg(ComponentId c, Routine r, double t0_ms, double t1_ms, double w) {
  return PowerSegment{c,
                      r,
                      SimTime::origin() + Duration::from_ms(t0_ms),
                      SimTime::origin() + Duration::from_ms(t1_ms),
                      w};
}

TEST(EnergyAccountant, RegistersComponents) {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  const auto mcu = acct.register_component("mcu");
  EXPECT_EQ(acct.component_count(), 2u);
  EXPECT_EQ(acct.component_name(cpu), "cpu");
  EXPECT_EQ(acct.component_name(mcu), "mcu");
}

TEST(EnergyAccountant, SegmentEnergyIsWattsTimesSeconds) {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  acct.add(seg(cpu, Routine::kComputation, 0, 500, 2.0));
  EXPECT_DOUBLE_EQ(acct.joules(cpu, Routine::kComputation), 1.0);
}

TEST(EnergyAccountant, AccumulatesAcrossSegments) {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  acct.add(seg(cpu, Routine::kInterrupt, 0, 100, 1.0));
  acct.add(seg(cpu, Routine::kInterrupt, 200, 300, 1.0));
  // 1 W over two 100 ms segments: the 100 ms gap between them is not billed.
  EXPECT_DOUBLE_EQ(acct.joules(cpu, Routine::kInterrupt), 1.0 * 0.2);
}

TEST(EnergyAccountant, ConservationAcrossRoutines) {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  const auto mcu = acct.register_component("mcu");
  double expected = 0.0;
  int i = 0;
  for (Routine r : kAllRoutines) {
    const double w = 0.5 + 0.1 * i++;
    acct.add(seg(cpu, r, 0, 1000, w));
    acct.add(seg(mcu, r, 0, 1000, w / 2));
    expected += w + w / 2;
  }
  EXPECT_NEAR(acct.total_joules(), expected, 1e-12);
  EXPECT_NEAR(acct.component_joules(cpu) + acct.component_joules(mcu), expected, 1e-12);
}

TEST(EnergyAccountant, RoutineTotalsSpanComponents) {
  EnergyAccountant acct;
  const auto a = acct.register_component("a");
  const auto b = acct.register_component("b");
  acct.add(seg(a, Routine::kDataTransfer, 0, 1000, 1.0));
  acct.add(seg(b, Routine::kDataTransfer, 0, 1000, 2.0));
  EXPECT_DOUBLE_EQ(acct.routine_joules(Routine::kDataTransfer), 3.0);
}

TEST(EnergyAccountant, EachSegmentAddsWattsTimesItsDuration) {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  acct.add(seg(cpu, Routine::kDataTransfer, 0, 100, 1.0));
  const double first = acct.joules(cpu, Routine::kDataTransfer);
  acct.add(seg(cpu, Routine::kDataTransfer, 100, 150, 1.0));
  EXPECT_NEAR(acct.joules(cpu, Routine::kDataTransfer) - first, 1.0 * 0.05, 1e-12);
  EXPECT_DOUBLE_EQ(acct.joules(cpu, Routine::kDataTransfer), 0.15);
}

TEST(Routine, NamesAreDistinct) {
  for (Routine a : kAllRoutines) {
    for (Routine b : kAllRoutines) {
      if (a != b) {
        EXPECT_NE(to_string(a), to_string(b));
      }
    }
  }
}

}  // namespace
}  // namespace iotsim::energy
