// Tests for the extensions beyond the paper's evaluation: the §IV-F DMA
// hardware option, the ablation knobs, and trace/ledger cross-checks on
// full scenario runs.
#include <gtest/gtest.h>

#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

Scenario make(std::vector<AppId> ids, Scheme scheme, int windows = 2) {
  Scenario sc;
  sc.app_ids = std::move(ids);
  sc.scheme = scheme;
  sc.windows = windows;
  return sc;
}

TEST(DmaExtension, SavesEnergyOnTransferHeavyBaseline) {
  auto pio = make({AppId::kA2StepCounter}, Scheme::kBaseline);
  auto dma = pio;
  dma.hub.dma_enabled = true;
  const auto r_pio = run_scenario(pio);
  const auto r_dma = run_scenario(dma);
  EXPECT_LT(r_dma.total_joules(), r_pio.total_joules());
  EXPECT_TRUE(r_dma.qos_met) << r_dma.qos_summary();
}

TEST(DmaExtension, OutputsUnchanged) {
  auto pio = make({AppId::kA2StepCounter}, Scheme::kBatching);
  auto dma = pio;
  dma.hub.dma_enabled = true;
  const auto r_pio = run_scenario(pio);
  const auto r_dma = run_scenario(dma);
  // DMA changes energy/timing, not the data content. Sampling timestamps
  // shift by sub-millisecond amounts (the MCU is no longer pinned during
  // bulk transfers), so a boundary-riding step may migrate one window —
  // the totals must agree.
  double pio_total = 0.0, dma_total = 0.0;
  for (std::size_t w = 0; w < 2; ++w) {
    pio_total += r_pio.hubs.front().apps.at(AppId::kA2StepCounter).records[w].metric;
    dma_total += r_dma.hubs.front().apps.at(AppId::kA2StepCounter).records[w].metric;
  }
  EXPECT_NEAR(pio_total, dma_total, 1.0);
}

TEST(DmaExtension, HelpsBatchedHeavyApp) {
  // The paper's §IV-F claim: heavy apps need hardware help beyond Batching.
  auto pio = make({AppId::kA11SpeechToText}, Scheme::kBatching);
  auto dma = pio;
  dma.hub.dma_enabled = true;
  const auto r_pio = run_scenario(pio);
  const auto r_dma = run_scenario(dma);
  EXPECT_LT(r_dma.total_joules(), r_pio.total_joules());
}

TEST(Knobs, McuSpeedFactorScalesComLatency) {
  auto fast = make({AppId::kA2StepCounter}, Scheme::kCom);
  auto slow = fast;
  slow.mcu_speed_factor = 8.0;
  const auto r_fast = run_scenario(fast);
  const auto r_slow = run_scenario(slow);
  const auto fast_comp =
      r_fast.hubs.front().apps.at(AppId::kA2StepCounter).busy_per_window.computation;
  const auto slow_comp =
      r_slow.hubs.front().apps.at(AppId::kA2StepCounter).busy_per_window.computation;
  EXPECT_NEAR(slow_comp.to_seconds() / fast_comp.to_seconds(), 8.0, 0.5);
}

TEST(Knobs, McuSpeedFactorLeavesBaselineAlone) {
  auto a = make({AppId::kA2StepCounter}, Scheme::kBaseline);
  auto b = a;
  b.mcu_speed_factor = 8.0;  // only offloaded kernels run on the MCU
  EXPECT_DOUBLE_EQ(run_scenario(a).total_joules(), run_scenario(b).total_joules());
}

TEST(TraceIntegration, TraceEnergyMatchesLedger) {
  auto sc = make({AppId::kA2StepCounter}, Scheme::kBatching);
  sc.record_power_trace = true;
  const auto r = run_scenario(sc);
  ASSERT_NE(r.power_trace, nullptr);
  const double trace_j = r.power_trace->joules_between(
      sim::SimTime::origin(), sim::SimTime::origin() + r.span);
  EXPECT_NEAR(trace_j, r.total_joules(), r.total_joules() * 1e-6);
}

TEST(TraceIntegration, BaselineCpuNeverSleepsDuringSampling) {
  auto sc = make({AppId::kA2StepCounter}, Scheme::kBaseline);
  sc.record_power_trace = true;
  const auto r = run_scenario(sc);
  // Sample the CPU's power at mid-window instants: always ≥ active wait.
  for (double t_ms : {100.0, 333.0, 500.0, 777.0, 1500.0}) {
    const double w = r.power_trace->component_watts_at(
        0, sim::SimTime::origin() + sim::Duration::from_ms(t_ms));
    EXPECT_GE(w, 1.89) << "at " << t_ms << " ms";
  }
}

TEST(TraceIntegration, BatchingCpuSleepsMidWindow) {
  auto sc = make({AppId::kA2StepCounter}, Scheme::kBatching);
  sc.record_power_trace = true;
  const auto r = run_scenario(sc);
  const double w = r.power_trace->component_watts_at(
      0, sim::SimTime::origin() + sim::Duration::from_ms(500));
  EXPECT_LE(w, 0.5);  // light sleep, not active
}

TEST(TraceIntegration, ComCpuDeepSleepsMidWindow) {
  auto sc = make({AppId::kA2StepCounter}, Scheme::kCom);
  sc.record_power_trace = true;
  const auto r = run_scenario(sc);
  const double w = r.power_trace->component_watts_at(
      0, sim::SimTime::origin() + sim::Duration::from_ms(500));
  EXPECT_LE(w, 0.15);  // deep sleep
}

// Determinism across every scheme (seeded world, multi-app).
class DeterminismSweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(DeterminismSweep, RepeatRunsBitIdentical) {
  auto sc = make({AppId::kA2StepCounter, AppId::kA4M2x}, GetParam());
  sc.world.quakes = {{0.8, 0.2, 1.5}};
  const auto a = run_scenario(sc);
  const auto b = run_scenario(sc);
  EXPECT_DOUBLE_EQ(a.total_joules(), b.total_joules());
  EXPECT_EQ(a.span, b.span);
  EXPECT_EQ(a.cpu_wakeups, b.cpu_wakeups);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DeterminismSweep,
                         ::testing::Values(Scheme::kBaseline, Scheme::kBatching, Scheme::kCom,
                                           Scheme::kBeam, Scheme::kBcom));

}  // namespace
}  // namespace iotsim::core
