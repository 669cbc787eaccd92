// §II-B Task I fault injection: sensor availability checks fail with some
// probability; the driver retries. The sample stream must stay complete
// and QoS must degrade gracefully, not collapse.
#include <gtest/gtest.h>

#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

ScenarioResult run_with_faults(double prob, Scheme scheme = Scheme::kBaseline) {
  Scenario sc;
  sc.app_ids = {AppId::kA2StepCounter};
  sc.scheme = scheme;
  sc.windows = 2;
  sc.environment.emplace().faults.fault_prob = prob;
  return run_scenario(sc);
}

TEST(FaultInjection, NoFaultsByDefault) {
  const auto r = run_with_faults(0.0);
  EXPECT_EQ(r.sensor_read_errors, 0u);
}

TEST(FaultInjection, ErrorsCountedNearExpectedRate) {
  const auto r = run_with_faults(0.05);
  // 2000 samples at 5% first-attempt failure ⇒ ~100 errors (retries can
  // fail too, adding a few more).
  EXPECT_GT(r.sensor_read_errors, 60u);
  EXPECT_LT(r.sensor_read_errors, 180u);
}

TEST(FaultInjection, SampleStreamStaysComplete) {
  const auto r = run_with_faults(0.10);
  // Retries always deliver: every window still collects its 1000 samples
  // (the kernel reports a sane step count, not "no samples").
  for (const auto& rec : r.hubs.front().apps.at(AppId::kA2StepCounter).records) {
    EXPECT_NE(rec.summary, "no samples");
  }
  EXPECT_TRUE(r.qos_met) << r.qos_summary();
}

TEST(FaultInjection, EnergyOverheadGrowsWithFaultRate) {
  const double clean = run_with_faults(0.0).total_joules();
  const double faulty = run_with_faults(0.20).total_joules();
  EXPECT_GT(faulty, clean);
  // Retries cost microseconds each; the overhead must stay modest.
  EXPECT_LT(faulty, clean * 1.10);
}

TEST(FaultInjection, WorksUnderEveryScheme) {
  for (Scheme scheme : {Scheme::kBaseline, Scheme::kBatching, Scheme::kCom}) {
    const auto r = run_with_faults(0.05, scheme);
    EXPECT_GT(r.sensor_read_errors, 0u) << to_string(scheme);
    EXPECT_TRUE(r.qos_met) << to_string(scheme) << "\n" << r.qos_summary();
  }
}

TEST(FaultInjection, Deterministic) {
  const auto a = run_with_faults(0.07);
  const auto b = run_with_faults(0.07);
  EXPECT_EQ(a.sensor_read_errors, b.sensor_read_errors);
  EXPECT_DOUBLE_EQ(a.total_joules(), b.total_joules());
}

}  // namespace
}  // namespace iotsim::core
