// Scenario-level contract of the environment layer: crash/reboot
// determinism, online battery semantics and the acceptance criterion of the
// sharded path — a fleet with crashing and harvesting hubs serializes
// byte-identically at any shard count.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/result_json.h"
#include "core/scenario_runner.h"

namespace iotsim {
namespace {

using core::Scenario;
using core::Scheme;

core::ScenarioBuilder step_counter(Scheme scheme, int windows) {
  return Scenario::builder()
      .apps({apps::AppId::kA2StepCounter})
      .scheme(scheme)
      .windows(windows);
}

TEST(Environment, NoEnvironmentReportsAlwaysUp) {
  const auto r = core::run_scenario(step_counter(Scheme::kBcom, 2).build());
  ASSERT_TRUE(r.ok());
  const auto& a = r.hubs[0].availability;
  EXPECT_FALSE(a.modeled);
  EXPECT_EQ(a.windows_lost, 0u);
  EXPECT_EQ(a.reboots, 0u);
  EXPECT_DOUBLE_EQ(a.uptime_fraction, 1.0);
  EXPECT_EQ(a.downtime.count_ns(), 0);
}

// --- sample loss through correlated faults ---------------------------------

// A Gilbert-Elliott profile that is pinned inside a certain burst fails
// every availability check; unlike iid, the exhausted retries *lose* the
// sample — counted per hub, with the window itself still completing.
TEST(Environment, CertainBurstLosesSamplesButNotWindows) {
  env::EnvironmentConfig environment;
  environment.faults.model = env::FaultModel::kGilbertElliott;
  environment.faults.burst_enter_prob = 1.0;
  environment.faults.burst_exit_prob = 0.0;
  environment.faults.good_fault_prob = 0.0;
  environment.faults.burst_fault_prob = 1.0;
  const auto r =
      core::run_scenario(step_counter(Scheme::kBaseline, 2).environment(environment).build());
  ASSERT_TRUE(r.ok());
  const auto& a = r.hubs[0].availability;
  EXPECT_GT(a.samples_lost_faults, 0u);
  EXPECT_EQ(a.windows_lost, 0u);
  EXPECT_EQ(a.samples_lost_outage, 0u);
  EXPECT_GT(r.sensor_read_errors, 0u);  // every check retried three times
  EXPECT_DOUBLE_EQ(a.uptime_fraction, 1.0);
}

// --- crash/reboot ----------------------------------------------------------

Scenario crashy_fleet(int hubs, int windows) {
  env::EnvironmentConfig environment;
  environment.crash.crash_prob_per_window = 0.3;
  environment.crash.reboot_windows = 2;
  return Scenario::builder()
      .scheme(Scheme::kBaseline)
      .windows(windows)
      .environment(environment)
      .add_hub(hw::default_hub_spec(), {apps::AppId::kA2StepCounter}, hubs)
      .build();
}

TEST(Environment, CrashRebootIsDeterministicAndCounted) {
  const auto first = core::run_scenario(crashy_fleet(4, 12));
  const auto second = core::run_scenario(crashy_fleet(4, 12));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(core::to_json_text(first), core::to_json_text(second));

  const auto& a = first.energy.availability();
  EXPECT_TRUE(a.modeled);
  EXPECT_EQ(a.hubs_modeled, 4u);
  // p=0.3 over 4×12 hub-windows: a crash-free run would be a 1-in-10^7 fluke.
  EXPECT_GT(a.reboots, 0u);
  EXPECT_GE(a.windows_lost, a.reboots);  // each reboot loses ≥ 1 window
  // Downtime is exactly the lost-window count at the 1 s window quantum.
  EXPECT_EQ(a.downtime.count_ns(), static_cast<std::int64_t>(a.windows_lost) * 1'000'000'000);

  // The fleet roll-up re-assembles from the per-hub sections.
  std::uint64_t reboots = 0, lost = 0;
  bool any_down = false;
  for (const auto& hub : first.hubs) {
    EXPECT_TRUE(hub.availability.modeled);
    reboots += hub.availability.reboots;
    lost += hub.availability.windows_lost;
    any_down = any_down || hub.availability.uptime_fraction < 1.0;
  }
  EXPECT_EQ(reboots, a.reboots);
  EXPECT_EQ(lost, a.windows_lost);
  EXPECT_TRUE(any_down);
}

TEST(Environment, CrashSaltKeepsCleanHubsIdentical) {
  // A crash model with probability zero must not perturb the run at all:
  // the crash RNG derives from a salted seed, not the hub's fork chain.
  env::EnvironmentConfig environment;
  environment.crash.crash_prob_per_window = 0.0;
  const auto with_env =
      core::run_scenario(step_counter(Scheme::kBatching, 3).environment(environment).build());
  const auto legacy = core::run_scenario(step_counter(Scheme::kBatching, 3).build());
  ASSERT_TRUE(with_env.ok());
  EXPECT_EQ(with_env.total_joules(), legacy.total_joules());
  EXPECT_EQ(with_env.interrupts_raised, legacy.interrupts_raised);
  EXPECT_EQ(with_env.span.count_ns(), legacy.span.count_ns());
}

// --- online power ----------------------------------------------------------

Scenario battery_scenario(env::PowerModel model, env::HarvestTrace harvest, int windows) {
  env::EnvironmentConfig environment;
  environment.power.model = model;
  environment.power.battery_capacity_wh = 0.0003;  // 1.08 J — depletes fast
  environment.power.harvest = harvest;
  return step_counter(Scheme::kBaseline, windows).environment(environment).build();
}

TEST(Environment, BatteryDepletionSuspendsTheHub) {
  const auto r = core::run_scenario(battery_scenario(env::PowerModel::kBattery, {}, 6));
  ASSERT_TRUE(r.ok());
  const auto& a = r.hubs[0].availability;
  EXPECT_TRUE(a.modeled);
  EXPECT_TRUE(a.power_limited);
  EXPECT_GT(a.windows_lost, 0u);          // the store runs dry mid-run…
  EXPECT_GT(a.samples_lost_outage, 0u);   // …and gates the samplers
  EXPECT_LT(a.uptime_fraction, 1.0);
  EXPECT_GT(a.billed_j, 0.0);
  EXPECT_LE(a.billed_j, 1.08 + 1e-9);     // never bills beyond the store
  EXPECT_DOUBLE_EQ(a.stored_j, 0.0);
  EXPECT_DOUBLE_EQ(a.harvested_j, 0.0);
  EXPECT_DOUBLE_EQ(a.energy_neutral_margin(), 0.0);

  // Depletion is part of the deterministic run, not wall-clock state.
  const auto again = core::run_scenario(battery_scenario(env::PowerModel::kBattery, {}, 6));
  EXPECT_EQ(core::to_json_text(r), core::to_json_text(again));
}

TEST(Environment, HarvestingBringsTheHubBack) {
  env::HarvestTrace sun;
  sun.peak_w = 5.0;
  sun.period_s = 4.0;
  sun.duty = 0.5;  // 5 W for 2 s of every 4 — above the hub's average draw
  const auto dark = core::run_scenario(battery_scenario(env::PowerModel::kBattery, {}, 10));
  const auto lit =
      core::run_scenario(battery_scenario(env::PowerModel::kHarvesting, sun, 10));
  ASSERT_TRUE(lit.ok());

  const auto& harvested = lit.hubs[0].availability;
  const auto& depleted = dark.hubs[0].availability;
  EXPECT_GT(harvested.harvested_j, 0.0);
  // The harvesting hub recovers windows the pure battery loses for good.
  EXPECT_LT(harvested.windows_lost, depleted.windows_lost);
  EXPECT_GT(harvested.uptime_fraction, depleted.uptime_fraction);
  EXPECT_GT(harvested.energy_neutral_margin(), 0.0);
}

// --- sharded execution -----------------------------------------------------

// The acceptance criterion: a mixed fleet — crashing hubs, harvesting
// battery hubs and plain legacy hubs side by side — serializes
// byte-identically on one shard and at any shard count.
TEST(Environment, ShardedFleetWithEnvironmentsIsByteIdentical) {
  env::EnvironmentConfig crashy;
  crashy.faults.model = env::FaultModel::kGilbertElliott;
  crashy.faults.burst_enter_prob = 0.1;
  crashy.faults.burst_exit_prob = 0.3;
  crashy.faults.burst_fault_prob = 0.8;
  crashy.crash.crash_prob_per_window = 0.25;
  crashy.crash.reboot_windows = 1;

  env::EnvironmentConfig solar;
  solar.power.model = env::PowerModel::kHarvesting;
  solar.power.battery_capacity_wh = 0.0005;
  solar.power.harvest.peak_w = 4.0;
  solar.power.harvest.period_s = 3.0;
  solar.power.harvest.duty = 0.5;

  const Scenario sc = Scenario::builder()
                          .scheme(Scheme::kBcom)
                          .windows(8)
                          .add_hub(hw::default_hub_spec(), {apps::AppId::kA2StepCounter}, 2)
                          .hub_environment(crashy)
                          .add_hub(hw::default_hub_spec(), {apps::AppId::kA8Heartbeat}, 2)
                          .hub_environment(solar)
                          .add_hub(hw::default_hub_spec(), {apps::AppId::kA5Blynk}, 2)
                          .build();

  const std::string single = core::to_json_text(core::run_scenario(sc, core::ExecPolicy{}));
  const std::string sharded3 =
      core::to_json_text(core::run_scenario(sc, core::ExecPolicy{.shards = 3}));
  const std::string sharded6 =
      core::to_json_text(core::run_scenario(sc, core::ExecPolicy{.shards = 6}));
  EXPECT_EQ(single, sharded3);
  EXPECT_EQ(single, sharded6);

  // Per-hub overrides land on the right hubs: the crashy pair is modeled
  // without power limits, the solar pair is power-limited, the plain pair
  // reports the always-up default.
  const auto r = core::run_scenario(sc);
  ASSERT_EQ(r.hubs.size(), 6u);
  EXPECT_TRUE(r.hubs[0].availability.modeled);
  EXPECT_FALSE(r.hubs[0].availability.power_limited);
  EXPECT_TRUE(r.hubs[2].availability.power_limited);
  EXPECT_FALSE(r.hubs[4].availability.modeled);
  EXPECT_EQ(r.energy.availability().hubs_modeled, 4u);
}

// --- serialization ---------------------------------------------------------

TEST(Environment, JsonCarriesAvailabilitySections) {
  const auto r = core::run_scenario(battery_scenario(env::PowerModel::kBattery, {}, 4));
  const std::string json = core::to_json_text(r);
  EXPECT_NE(json.find("\"availability\""), std::string::npos);
  EXPECT_NE(json.find("\"windows_lost\""), std::string::npos);
  EXPECT_NE(json.find("\"energy_neutral_margin\""), std::string::npos);
}

// --- validation ------------------------------------------------------------

TEST(Environment, ValidationRejectsBadFields) {
  env::EnvironmentConfig bad;
  bad.faults.fault_prob = 1.5;
  bad.crash.reboot_windows = 0;
  bad.power.model = env::PowerModel::kBattery;
  bad.power.battery_capacity_wh = 0.0;
  const auto errors = step_counter(Scheme::kBaseline, 2).environment(bad).build().validate();

  auto has_field = [&](const std::string& field) {
    return std::any_of(errors.begin(), errors.end(),
                       [&](const core::ScenarioError& e) { return e.field == field; });
  };
  EXPECT_TRUE(has_field("environment.faults.fault_prob"));
  EXPECT_TRUE(has_field("environment.crash.reboot_windows"));
  EXPECT_TRUE(has_field("environment.power.battery_capacity_wh"));

  // run_scenario surfaces them instead of running.
  const auto r =
      core::run_scenario(step_counter(Scheme::kBaseline, 2).environment(bad).build());
  EXPECT_FALSE(r.ok());
}

TEST(Environment, ValidationPrefixesPerHubOverrides) {
  env::EnvironmentConfig bad;
  bad.power.harvest.duty = 2.0;
  const Scenario sc = Scenario::builder()
                          .windows(2)
                          .add_hub(hw::default_hub_spec(), {apps::AppId::kA2StepCounter})
                          .hub_environment(bad)
                          .build();
  const auto errors = sc.validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_TRUE(std::any_of(errors.begin(), errors.end(), [](const core::ScenarioError& e) {
    return e.field == "hubs[0].environment.power.harvest.duty";
  }));
}

}  // namespace
}  // namespace iotsim
