// Property tests over full scenario runs: the invariants of DESIGN.md §5.
#include <gtest/gtest.h>

#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

Scenario make(std::vector<AppId> ids, Scheme scheme, int windows = 2,
              std::uint64_t seed = 42) {
  return Scenario::builder()
      .apps(std::move(ids))
      .scheme(scheme)
      .windows(windows)
      .seed(seed)
      .build();
}

// ---- Property 1: energy conservation -------------------------------------

class ConservationSweep
    : public ::testing::TestWithParam<std::tuple<Scheme, AppId>> {};

TEST_P(ConservationSweep, RoutineSumEqualsTotal) {
  const auto [scheme, app] = GetParam();
  const auto r = run_scenario(make({app}, scheme));
  double sum = 0.0;
  for (auto rt : energy::kAllRoutines) sum += r.energy.joules(rt);
  EXPECT_NEAR(sum, r.total_joules(), r.total_joules() * 1e-9 + 1e-12);
  EXPECT_GT(r.total_joules(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndApps, ConservationSweep,
    ::testing::Combine(::testing::Values(Scheme::kBaseline, Scheme::kBatching, Scheme::kCom),
                       ::testing::Values(AppId::kA2StepCounter, AppId::kA3ArduinoJson,
                                         AppId::kA9JpegDecoder, AppId::kA4M2x)));

// ---- Property: determinism -----------------------------------------------

TEST(ScenarioProperties, IdenticalSeedsGiveIdenticalResults) {
  const auto a = run_scenario(make({AppId::kA2StepCounter, AppId::kA4M2x}, Scheme::kBaseline));
  const auto b = run_scenario(make({AppId::kA2StepCounter, AppId::kA4M2x}, Scheme::kBaseline));
  EXPECT_DOUBLE_EQ(a.total_joules(), b.total_joules());
  EXPECT_EQ(a.interrupts_raised, b.interrupts_raised);
  EXPECT_EQ(a.span, b.span);
  for (const auto& [id, res] : a.hubs.front().apps) {
    for (std::size_t w = 0; w < res.records.size(); ++w) {
      EXPECT_EQ(res.records[w].summary, b.hubs.front().apps.at(id).records[w].summary);
    }
  }
}

TEST(ScenarioProperties, DifferentSeedsDifferInData) {
  const auto a = run_scenario(make({AppId::kA3ArduinoJson}, Scheme::kBaseline, 2, 1));
  const auto b = run_scenario(make({AppId::kA3ArduinoJson}, Scheme::kBaseline, 2, 2));
  // Different environment random walks ⇒ different JSON documents.
  EXPECT_NE(a.hubs.front().apps.at(AppId::kA3ArduinoJson).records[0].metric,
            b.hubs.front().apps.at(AppId::kA3ArduinoJson).records[0].metric);
}

// ---- Property 3/4: batching interrupt arithmetic --------------------------

TEST(ScenarioProperties, BatchFlushesControlInterruptCount) {
  for (int flushes : {1, 4, 10}) {
    auto sc = make({AppId::kA2StepCounter}, Scheme::kBatching);
    sc.batch_flushes_per_window = flushes;
    const auto r = run_scenario(sc);
    EXPECT_EQ(r.interrupts_raised, static_cast<std::uint64_t>(flushes) * 2u)
        << flushes << " flushes x 2 windows";
  }
}

TEST(ScenarioProperties, BatchingNeverRaisesMoreThanBaseline) {
  const auto base = run_scenario(make({AppId::kA5Blynk}, Scheme::kBaseline));
  for (int flushes : {1, 10, 100}) {
    auto sc = make({AppId::kA5Blynk}, Scheme::kBatching);
    sc.batch_flushes_per_window = flushes;
    const auto r = run_scenario(sc);
    EXPECT_LE(r.interrupts_raised, base.interrupts_raised);
  }
}

TEST(ScenarioProperties, MoreFlushesNeverCheaperThanFewer) {
  double previous = 0.0;
  for (int flushes : {1, 10, 100}) {
    auto sc = make({AppId::kA2StepCounter}, Scheme::kBatching);
    sc.batch_flushes_per_window = flushes;
    const double joules = run_scenario(sc).total_joules();
    EXPECT_GE(joules, previous) << flushes;
    previous = joules;
  }
}

// ---- Property 5: COM transfers only results -------------------------------

TEST(ScenarioProperties, ComTransferEnergyBelowBaseline) {
  for (auto id : {AppId::kA2StepCounter, AppId::kA6Dropbox, AppId::kA9JpegDecoder}) {
    const auto base = run_scenario(make({id}, Scheme::kBaseline));
    const auto com = run_scenario(make({id}, Scheme::kCom));
    EXPECT_LT(com.energy.paper_joules(energy::Routine::kDataTransfer),
              base.energy.paper_joules(energy::Routine::kDataTransfer) * 0.05)
        << apps::code_of(id);
  }
}

// ---- Property 6: QoS under every scheme ------------------------------------

class QosSweep : public ::testing::TestWithParam<Scheme> {};

TEST_P(QosSweep, SingleAppsMeetDeadlines) {
  for (auto id : {AppId::kA2StepCounter, AppId::kA8Heartbeat, AppId::kA10Fingerprint}) {
    const auto r = run_scenario(make({id}, GetParam()));
    EXPECT_TRUE(r.qos_met) << to_string(GetParam()) << " " << apps::code_of(id) << "\n"
                           << r.qos_summary();
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, QosSweep,
                         ::testing::Values(Scheme::kBaseline, Scheme::kBatching, Scheme::kCom,
                                           Scheme::kBeam, Scheme::kBcom));

// ---- Property 10: MCU memory budget ----------------------------------------

TEST(ScenarioProperties, PlannerNeverOversubscribesMcuRam) {
  OffloadPlanner planner{hw::default_hub_spec()};
  for (const auto& ids :
       {std::vector<AppId>{AppId::kA2StepCounter, AppId::kA9JpegDecoder, AppId::kA10Fingerprint},
        std::vector<AppId>{AppId::kA4M2x, AppId::kA5Blynk, AppId::kA6Dropbox, AppId::kA1CoapServer},
        std::vector<AppId>(apps::kLightweightApps.begin(), apps::kLightweightApps.end())}) {
    const auto plan = planner.plan(ids);
    EXPECT_LE(plan.mcu_ram_used, hw::default_hub_spec().mcu_available_ram());
  }
}

// ---- Sampling fidelity ------------------------------------------------------

TEST(ScenarioProperties, EveryWindowCollectsExpectedSamples) {
  for (Scheme scheme : {Scheme::kBaseline, Scheme::kBatching, Scheme::kCom}) {
    const auto r = run_scenario(make({AppId::kA4M2x}, scheme));
    for (const auto& rec : r.hubs.front().apps.at(AppId::kA4M2x).records) {
      // The M2X kernel reports how many samples it consumed.
      EXPECT_DOUBLE_EQ(rec.metric, 2220.0) << to_string(scheme);
    }
  }
}

TEST(ScenarioProperties, SamplingJitterBounded) {
  const auto r = run_scenario(make({AppId::kA2StepCounter}, Scheme::kBaseline, 3));
  // Single-app 1 kHz sampling should hold its period within a millisecond.
  EXPECT_LT(r.hubs.front().apps.at(AppId::kA2StepCounter).qos.worst_sample_jitter,
            sim::Duration::from_ms(1.5));
}

// ---- Energy monotonicity in windows ----------------------------------------

TEST(ScenarioProperties, EnergyScalesWithWindows) {
  const auto two = run_scenario(make({AppId::kA2StepCounter}, Scheme::kBaseline, 2));
  const auto four = run_scenario(make({AppId::kA2StepCounter}, Scheme::kBaseline, 4));
  const double ratio = four.total_joules() / two.total_joules();
  EXPECT_NEAR(ratio, 2.0, 0.1);
}

}  // namespace
}  // namespace iotsim::core
