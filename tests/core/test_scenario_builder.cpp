// ScenarioBuilder fluency and Scenario::validate() structured errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "check/check.h"
#include "core/scenario_runner.h"
#include "core/sweep.h"

namespace iotsim::core {
namespace {

using apps::AppId;

TEST(ScenarioBuilder, DefaultsMatchRawAggregate) {
  const Scenario raw;
  const auto built = Scenario::builder().build();
  EXPECT_EQ(scenario_key(raw), scenario_key(built));
}

TEST(ScenarioBuilder, SettersMapOntoFields) {
  sensors::WorldConfig world;
  world.heart_bpm = 91.0;
  auto hub = hw::default_hub_spec();
  hub.dma_enabled = true;

  const auto sc = Scenario::builder()
                      .apps({AppId::kA2StepCounter, AppId::kA7Earthquake})
                      .scheme(Scheme::kBcom)
                      .windows(10)
                      .seed(7)
                      .world(world)
                      .hub(hub)
                      .record_power_trace()
                      .batch_flushes_per_window(4)
                      .mcu_speed_factor(2.5)
                      .build();

  EXPECT_EQ(sc.app_ids, (std::vector<AppId>{AppId::kA2StepCounter, AppId::kA7Earthquake}));
  EXPECT_EQ(sc.scheme, Scheme::kBcom);
  EXPECT_EQ(sc.windows, 10);
  EXPECT_EQ(sc.seed, 7u);
  EXPECT_DOUBLE_EQ(sc.world.heart_bpm, 91.0);
  EXPECT_TRUE(sc.hub.dma_enabled);
  EXPECT_TRUE(sc.record_power_trace);
  EXPECT_EQ(sc.batch_flushes_per_window, 4);
  EXPECT_DOUBLE_EQ(sc.mcu_speed_factor, 2.5);
}

TEST(ScenarioValidate, WellFormedScenarioHasNoErrors) {
  const auto sc = Scenario::builder().apps({AppId::kA2StepCounter}).build();
  EXPECT_TRUE(sc.validate().empty());
}

TEST(ScenarioValidate, EmptyAppListIsAnError) {
  const auto errors = Scenario::builder().build().validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "app_ids");
}

TEST(ScenarioValidate, DuplicateAppsAreAnError) {
  const auto sc = Scenario::builder()
                      .apps({AppId::kA2StepCounter, AppId::kA2StepCounter})
                      .build();
  const auto errors = sc.validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "app_ids");
}

TEST(ScenarioValidate, NonPositiveWindows) {
  const auto errors =
      Scenario::builder().apps({AppId::kA2StepCounter}).windows(0).build().validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "windows");
}

TEST(ScenarioValidate, BatchFlushesBelowOne) {
  const auto errors = Scenario::builder()
                          .apps({AppId::kA2StepCounter})
                          .batch_flushes_per_window(0)
                          .build()
                          .validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "batch_flushes_per_window");
}

TEST(ScenarioValidate, NonPositiveMcuSpeedFactor) {
  const auto errors = Scenario::builder()
                          .apps({AppId::kA2StepCounter})
                          .mcu_speed_factor(0.0)
                          .build()
                          .validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "mcu_speed_factor");
}

TEST(ScenarioValidate, FaultProbabilityOutOfRange) {
  env::EnvironmentConfig environment;
  environment.faults.fault_prob = 1.5;
  const auto errors = Scenario::builder()
                          .apps({AppId::kA2StepCounter})
                          .environment(environment)
                          .build()
                          .validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "environment.faults.fault_prob");
}

std::vector<std::string> fields(const std::vector<ScenarioError>& errors) {
  std::vector<std::string> out;
  for (const auto& e : errors) out.push_back(e.field);
  return out;
}

TEST(ScenarioValidate, WorldRatesMustBePositiveAndFinite) {
  sensors::WorldConfig world;
  world.heart_bpm = -60.0;
  world.heart_irregular_prob = 1.5;
  world.walking_cadence_hz = std::numeric_limits<double>::quiet_NaN();
  const auto errors =
      Scenario::builder().apps({AppId::kA8Heartbeat}).world(world).build().validate();
  EXPECT_EQ(fields(errors), (std::vector<std::string>{"world.heart_bpm",
                                                      "world.heart_irregular_prob",
                                                      "world.walking_cadence_hz"}));

  for (const double bad : {0.0, std::numeric_limits<double>::infinity()}) {
    sensors::WorldConfig w;
    w.heart_bpm = bad;
    w.walking_cadence_hz = bad;
    w.heart_irregular_prob = -0.1;
    EXPECT_EQ(fields(Scenario::builder().apps({AppId::kA2StepCounter}).world(w).build().validate())
                  .size(),
              3u)
        << bad;
  }
}

TEST(ScenarioValidate, HubWorldOverrideIsCheckedWithItsPath) {
  HubInstance bad;
  bad.app_ids = {AppId::kA8Heartbeat};
  bad.world = sensors::WorldConfig{};
  bad.world->heart_bpm = -60.0;
  const auto errors = Scenario::builder()
                          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter})
                          .add_hub(bad)
                          .build()
                          .validate();
  EXPECT_EQ(fields(errors), std::vector<std::string>{"hubs[1].world.heart_bpm"});
}

// Each bad HubSpec value is an error on its field path, for the single hub
// and for a fleet template alike, and the run stops at validation: before
// validation checked the spec, a main NIC at 0 B/s ran and reported
// -7.1e10 J, and a NaN base power reported NaN J.
TEST(ScenarioValidate, HubSpecIsCheckedWithItsPath) {
  struct Row {
    const char* field;
    void (*mutate)(hw::HubSpec&);
  };
  const Row rows[] = {
      {"main_nic.bytes_per_second", [](hw::HubSpec& h) { h.main_nic.bytes_per_second = 0.0; }},
      {"mcu_nic.bytes_per_second", [](hw::HubSpec& h) { h.mcu_nic.bytes_per_second = -1.0; }},
      {"main_board_base_w",
       [](hw::HubSpec& h) { h.main_board_base_w = std::numeric_limits<double>::quiet_NaN(); }},
      {"cpu.light_sleep_w", [](hw::HubSpec& h) { h.cpu.light_sleep_w = -0.1; }},
      {"main_nic.tx_w",
       [](hw::HubSpec& h) { h.main_nic.tx_w = std::numeric_limits<double>::infinity(); }},
      {"transfer_per_byte",
       [](hw::HubSpec& h) { h.transfer_per_byte = sim::Duration::from_us(-1.0); }},
      {"cpu.deep_wake_latency",
       [](hw::HubSpec& h) { h.cpu.deep_wake_latency = sim::Duration::from_ms(-1.0); }},
      {"cpu_nominal_mips", [](hw::HubSpec& h) { h.cpu_nominal_mips = 0.0; }},
      {"mcu_firmware_reserved",
       [](hw::HubSpec& h) { h.mcu_firmware_reserved = h.mcu_ram_bytes + 1; }},
  };
  const std::vector<AppId> apps = {AppId::kA2StepCounter, AppId::kA4M2x};
  for (const Row& row : rows) {
    hw::HubSpec bad = hw::default_hub_spec();
    row.mutate(bad);
    const Scenario single = Scenario::builder().apps(apps).hub(bad).windows(2).build();
    const Scenario fleet = Scenario::builder()
                               .add_hub(hw::default_hub_spec(), apps)
                               .add_hub(hw::default_hub_spec(), apps)
                               .add_hub(bad, apps)
                               .windows(2)
                               .build();
    EXPECT_EQ(fields(single.validate()), std::vector<std::string>{std::string{"hub."} + row.field});
    EXPECT_EQ(fields(fleet.validate()),
              std::vector<std::string>{std::string{"hubs[2].hub."} + row.field});
    for (const Scenario* sc : {&single, &fleet}) {
      const ScenarioResult r = run_scenario(*sc);
      EXPECT_FALSE(r.ok()) << row.field;
      EXPECT_EQ(r.energy.kernel().events_dispatched, 0u) << row.field;
    }
  }
  EXPECT_TRUE(
      Scenario::builder().apps(apps).hub(hw::default_hub_spec()).build().validate().empty());
}

TEST(ScenarioValidate, NegativeHeartRateNeverReachesPulseSignal) {
  // PulseSignal would append beats with negative intervals without end; a
  // build with IOTSIM_CHECKS stops that in its constructor, which throws
  // here. The run must stop at validation instead, in every build.
  check::ScopedFailureHandler guard{check::throwing_handler};
  sensors::WorldConfig world;
  world.heart_bpm = -60.0;
  HubInstance hub;
  hub.app_ids = {AppId::kA8Heartbeat};
  hub.world = world;
  const Scenario single =
      Scenario::builder().apps({AppId::kA8Heartbeat}).world(world).windows(1).build();
  const Scenario fleet = Scenario::builder().add_hub(hub).windows(1).build();
  for (const Scenario* sc : {&single, &fleet}) {
    // Guard: never start a run whose bad rate validation missed.
    ASSERT_EQ(sc->validate().size(), 1u);
    const ScenarioResult r = run_scenario(*sc);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.apps.size(), 0u);
    EXPECT_EQ(r.energy.kernel().events_dispatched, 0u);
    ASSERT_EQ(r.errors.size(), 1u);
    EXPECT_NE(r.errors[0].field.find("world.heart_bpm"), std::string::npos);
  }
}

TEST(ScenarioValidate, MultipleErrorsAccumulate) {
  const auto errors = Scenario::builder().windows(-3).mcu_speed_factor(-1.0).build().validate();
  EXPECT_EQ(errors.size(), 3u);  // empty apps + windows + mcu_speed_factor
}

TEST(ScenarioValidate, ToStringNamesTheField) {
  const auto errors = Scenario::builder().build().validate();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(to_string(errors[0]).find("app_ids"), std::string::npos);
}

TEST(ScenarioValidate, RunScenarioSurfacesErrorsInsteadOfRunning) {
  const auto r = run_scenario(Scenario::builder().windows(0).build());
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.qos_met);
  EXPECT_EQ(r.apps.size(), 0u);
  EXPECT_DOUBLE_EQ(r.total_joules(), 0.0);
  ASSERT_EQ(r.errors.size(), 2u);  // empty apps + windows
}

}  // namespace
}  // namespace iotsim::core
