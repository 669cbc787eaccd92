// End-to-end scheme behaviour on the full simulated hub — the paper's
// qualitative claims as assertions.
#include <gtest/gtest.h>

#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

ScenarioResult run(std::vector<AppId> ids, Scheme scheme, int windows = 3) {
  return run_scenario(
      Scenario::builder().apps(std::move(ids)).scheme(scheme).windows(windows).build());
}

TEST(Schemes, BaselineInterruptsPerSample) {
  const auto r = run({AppId::kA2StepCounter}, Scheme::kBaseline);
  // 1000 samples per window × 3 windows.
  EXPECT_EQ(r.interrupts_raised, 3000u);
  EXPECT_TRUE(r.qos_met) << r.qos_summary();
}

TEST(Schemes, BatchingOneInterruptPerWindow) {
  const auto r = run({AppId::kA2StepCounter}, Scheme::kBatching);
  EXPECT_EQ(r.interrupts_raised, 3u);  // the paper's 1000 → 1
  EXPECT_TRUE(r.qos_met) << r.qos_summary();
}

TEST(Schemes, BatchingSavesEnergyInPaperRange) {
  const auto base = run({AppId::kA2StepCounter}, Scheme::kBaseline);
  const auto batch = run({AppId::kA2StepCounter}, Scheme::kBatching);
  const double savings = batch.energy.savings_vs(base.energy);
  // Paper: 52% average, 63% for the step counter; require the right regime.
  EXPECT_GT(savings, 0.40);
  EXPECT_LT(savings, 0.75);
}

TEST(Schemes, ComEliminatesDataTransfer) {
  const auto com = run({AppId::kA2StepCounter}, Scheme::kCom);
  EXPECT_NEAR(com.energy.paper_joules(energy::Routine::kDataTransfer), 0.0, 1e-9);
  EXPECT_TRUE(com.qos_met) << com.qos_summary();
  EXPECT_EQ(com.hubs.front().apps.at(AppId::kA2StepCounter).mode, AppMode::kOffloaded);
}

TEST(Schemes, ComBeatsBatchingBeatsBaseline) {
  const auto base = run({AppId::kA2StepCounter}, Scheme::kBaseline);
  const auto batch = run({AppId::kA2StepCounter}, Scheme::kBatching);
  const auto com = run({AppId::kA2StepCounter}, Scheme::kCom);
  EXPECT_LT(com.total_joules(), batch.total_joules());
  EXPECT_LT(batch.total_joules(), base.total_joules());
}

TEST(Schemes, AppOutputsEquivalentAcrossSchemes) {
  // The optimisations must not change the user-level results. Sample
  // *timestamps* differ slightly between schemes (the baseline handshake
  // shifts reads by a fraction of a millisecond), so boundary-riding peaks
  // may move by one window — totals must agree and per-window counts stay
  // within one step.
  const auto base = run({AppId::kA2StepCounter}, Scheme::kBaseline);
  const auto batch = run({AppId::kA2StepCounter}, Scheme::kBatching);
  const auto com = run({AppId::kA2StepCounter}, Scheme::kCom);
  double base_total = 0.0, batch_total = 0.0, com_total = 0.0;
  const auto& base_a2 = base.hubs.front().apps.at(AppId::kA2StepCounter).records;
  const auto& batch_a2 = batch.hubs.front().apps.at(AppId::kA2StepCounter).records;
  const auto& com_a2 = com.hubs.front().apps.at(AppId::kA2StepCounter).records;
  for (std::size_t w = 0; w < 3; ++w) {
    const auto& b = base_a2[w];
    const auto& t = batch_a2[w];
    const auto& c = com_a2[w];
    EXPECT_NEAR(b.metric, t.metric, 1.0) << "window " << w;
    EXPECT_NEAR(b.metric, c.metric, 1.0) << "window " << w;
    base_total += b.metric;
    batch_total += t.metric;
    com_total += c.metric;
  }
  EXPECT_NEAR(base_total, batch_total, 1.0);
  EXPECT_NEAR(base_total, com_total, 1.0);
}

TEST(Schemes, ComFallsBackToBaselineForHeavyApp) {
  const auto r = run({AppId::kA11SpeechToText}, Scheme::kCom);
  EXPECT_EQ(r.hubs.front().apps.at(AppId::kA11SpeechToText).mode, AppMode::kPerSample);
  EXPECT_FALSE(r.hubs.front().plan.offloaded(AppId::kA11SpeechToText));
}

TEST(Schemes, BcomSplitsHeavyAndLight) {
  const auto r = run({AppId::kA11SpeechToText, AppId::kA6Dropbox}, Scheme::kBcom);
  EXPECT_EQ(r.hubs.front().apps.at(AppId::kA11SpeechToText).mode, AppMode::kBatched);
  EXPECT_EQ(r.hubs.front().apps.at(AppId::kA6Dropbox).mode, AppMode::kOffloaded);
}

TEST(Schemes, BeamDeduplicatesSharedSensor) {
  // A2 and A7 share the accelerometer at the same rate.
  const auto base = run({AppId::kA2StepCounter, AppId::kA7Earthquake}, Scheme::kBaseline);
  const auto beam = run({AppId::kA2StepCounter, AppId::kA7Earthquake}, Scheme::kBeam);
  EXPECT_EQ(base.interrupts_raised, 6000u);
  EXPECT_EQ(beam.interrupts_raised, 3000u);  // one stream instead of two
  EXPECT_LT(beam.total_joules(), base.total_joules());
}

TEST(Schemes, BeamNoSharingNoBenefit) {
  // Property 8 of DESIGN.md: disjoint sensor sets ⇒ BEAM ≡ Baseline.
  const auto base = run({AppId::kA2StepCounter, AppId::kA8Heartbeat}, Scheme::kBaseline);
  const auto beam = run({AppId::kA2StepCounter, AppId::kA8Heartbeat}, Scheme::kBeam);
  EXPECT_EQ(base.interrupts_raised, beam.interrupts_raised);
  EXPECT_NEAR(beam.total_joules(), base.total_joules(),
              base.total_joules() * 0.01);
}

TEST(Schemes, BeamAppsBothReceiveSharedData) {
  const auto beam = run({AppId::kA2StepCounter, AppId::kA7Earthquake}, Scheme::kBeam);
  for (auto id : {AppId::kA2StepCounter, AppId::kA7Earthquake}) {
    for (const auto& rec : beam.hubs.front().apps.at(id).records) {
      EXPECT_FALSE(rec.summary.empty()) << apps::code_of(id);
      EXPECT_NE(rec.summary, "no samples") << apps::code_of(id);
    }
  }
}

TEST(Schemes, OffloadedCloudAppUsesMcuRadio) {
  Scenario sc;
  sc.app_ids = {AppId::kA4M2x};
  sc.scheme = Scheme::kCom;
  sc.windows = 2;
  sc.record_power_trace = true;
  const auto r = run_scenario(sc);
  // Under COM the cloud session must ride the MCU NIC, not the main one.
  double main_nic_j = 0.0, mcu_nic_j = 0.0;
  for (const auto& [name, row] : r.energy.by_component()) {
    double total = 0.0;
    for (double j : row) total += j;
    if (name == "main_nic") main_nic_j = total;
    if (name == "mcu_nic") mcu_nic_j = total;
  }
  EXPECT_GT(mcu_nic_j, 0.0);
  EXPECT_NEAR(main_nic_j, 0.0, 1e-9);
}

TEST(Schemes, HeavyBaselineComputationDominates) {
  const auto r = run({AppId::kA11SpeechToText}, Scheme::kBaseline);
  const double comp = r.energy.paper_fraction(energy::Routine::kComputation);
  // Paper Fig. 12a: app-specific computing dominates (~78%); require the
  // dominant-share regime.
  EXPECT_GT(comp, 0.40);
  const double dt = r.energy.paper_fraction(energy::Routine::kDataTransfer);
  EXPECT_GT(comp, dt);
}

TEST(Schemes, BatchingHelpsHeavyAppFarLess) {
  const auto base11 = run({AppId::kA11SpeechToText}, Scheme::kBaseline);
  const auto batch11 = run({AppId::kA11SpeechToText}, Scheme::kBatching);
  const auto base2 = run({AppId::kA2StepCounter}, Scheme::kBaseline);
  const auto batch2 = run({AppId::kA2StepCounter}, Scheme::kBatching);
  // Paper Fig. 12a: 5% for A11 vs 52%+ for light apps — at least a 1.7×
  // smaller relative saving for the heavy app.
  EXPECT_LT(batch11.energy.savings_vs(base11.energy),
            batch2.energy.savings_vs(base2.energy) * 0.6);
}

}  // namespace
}  // namespace iotsim::core
