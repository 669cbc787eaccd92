#include "energy/energy_report.h"

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

EnergyReport sample_report() {
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  const auto nic = acct.register_component("nic");
  acct.add(seg(cpu, Routine::kDataTransfer, 0, 500, 2.0));   // 1.0 J
  acct.add(seg(cpu, Routine::kComputation, 500, 750, 2.0));  // 0.5 J
  acct.add(seg(nic, Routine::kNetwork, 0, 250, 1.0));        // 0.25 J
  acct.add(seg(cpu, Routine::kIdle, 750, 1000, 0.1));        // 0.025 J
  return EnergyReport::from_accountant(acct, Duration::sec(1));
}

TEST(EnergyReport, TotalsAndAverages) {
  const auto r = sample_report();
  EXPECT_NEAR(r.total_joules(), 1.775, 1e-12);
  EXPECT_NEAR(r.average_watts(), 1.775, 1e-12);
}

TEST(EnergyReport, ComponentLookup) {
  const auto r = sample_report();
  const auto joules = [&](const std::string& name) {
    double j = 0.0;
    for (double routine_j : r.by_component().at(name)) j += routine_j;
    return j;
  };
  EXPECT_NEAR(joules("cpu"), 1.525, 1e-12);
  EXPECT_NEAR(joules("nic"), 0.25, 1e-12);
  EXPECT_EQ(r.by_component().count("missing"), 0u);
}

TEST(EnergyReport, NetworkFoldsIntoComputation) {
  const auto r = sample_report();
  EXPECT_NEAR(r.paper_joules(Routine::kComputation), 0.75, 1e-12);  // 0.5 + 0.25 net
  EXPECT_NEAR(r.paper_fraction(Routine::kComputation), 0.75 / 1.775, 1e-12);
  EXPECT_NEAR(r.paper_joules(Routine::kDataTransfer), 1.0, 1e-12);
}

TEST(EnergyReport, RoutineJoulesAreWattsTimesSegmentTime) {
  const auto r = sample_report();
  EXPECT_NEAR(r.joules(Routine::kDataTransfer), 2.0 * 0.5, 1e-12);
  EXPECT_NEAR(r.joules(Routine::kIdle), 0.1 * 0.25, 1e-12);
}

TEST(EnergyReport, SavingsAndNormalisation) {
  const auto base = sample_report();
  EnergyAccountant acct;
  const auto cpu = acct.register_component("cpu");
  acct.add(seg(cpu, Routine::kComputation, 0, 250, 2.0));  // 0.5 J
  const auto cheap = EnergyReport::from_accountant(acct, Duration::sec(1));
  EXPECT_NEAR(cheap.savings_vs(base), 1.0 - 0.5 / 1.775, 1e-12);
  EXPECT_NEAR(cheap.normalized_to(base), 0.5 / 1.775, 1e-12);
}

}  // namespace
}  // namespace iotsim::energy
