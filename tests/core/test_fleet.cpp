// Multi-hub fleet scenarios: back-compat with the single-hub path, per-hub
// result sections, seed derivation, count expansion, and fleet validation.
#include <gtest/gtest.h>

#include <deque>
#include <string>

#include "core/hub_runtime.h"
#include "core/result_json.h"
#include "core/scenario_runner.h"
#include "energy/energy_accountant.h"
#include "energy/energy_report.h"
#include "sim/simulator.h"

namespace iotsim::core {
namespace {

using apps::AppId;

Scenario single(Scheme scheme = Scheme::kCom) {
  return Scenario::builder()
      .apps({AppId::kA2StepCounter, AppId::kA7Earthquake})
      .scheme(scheme)
      .windows(2)
      .build();
}

TEST(FleetResolve, LegacyScenarioDesugarsToOneUnscopedHub) {
  const auto sc = single();
  EXPECT_FALSE(sc.multi_hub());
  EXPECT_EQ(sc.fleet_size(), 1u);

  const FleetView fleet = sc.fleet();
  ASSERT_EQ(fleet.size(), 1u);
  const HubView hub = fleet.hub(0);
  EXPECT_EQ(hub.index, 0u);
  EXPECT_EQ(hub.name, "hub0");
  EXPECT_EQ(hub.component_scope, "");  // historical flat component names
  EXPECT_EQ(hub.seed, sc.seed);
  EXPECT_EQ(hub.app_ids, &sc.app_ids);
  EXPECT_EQ(hub.world, &sc.world);
  EXPECT_EQ(hub.spec, &sc.hub);
}

TEST(FleetResolve, CountExpansionNamesHubsByFlatIndex) {
  const auto sc = Scenario::builder()
                      .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter}, 2)
                      .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk})
                      .build();
  EXPECT_TRUE(sc.multi_hub());
  EXPECT_EQ(sc.fleet_size(), 3u);

  const FleetView fleet = sc.fleet();
  ASSERT_EQ(fleet.size(), 3u);
  const HubView h0 = fleet.hub(0);
  const HubView h1 = fleet.hub(1);
  const HubView h2 = fleet.hub(2);
  EXPECT_EQ(h0.name, "hub0");
  EXPECT_EQ(h1.name, "hub1");
  EXPECT_EQ(h2.name, "hub2");
  EXPECT_EQ(h2.index, 2u);
  // Fleet hubs scope their accountant components by name.
  EXPECT_EQ(h1.component_scope, "hub1");
  // The two count-expanded copies share the template's spec/app list (the
  // view points into the count-compressed scenario; nothing is copied)...
  EXPECT_EQ(h0.spec, h1.spec);
  EXPECT_EQ(h0.app_ids, h1.app_ids);
  // ...but draw from distinct RNG streams.
  EXPECT_NE(h0.seed, h1.seed);
  EXPECT_NE(h1.seed, h2.seed);
}

TEST(FleetResolve, HubSeedIsIdentityAtIndexZero) {
  EXPECT_EQ(hub_seed(42, 0), 42u);
  EXPECT_NE(hub_seed(42, 1), 42u);
  EXPECT_NE(hub_seed(42, 1), hub_seed(42, 2));
}

TEST(FleetResolve, PerHubWorldOverrideAppliesOnlyToItsHub) {
  sensors::WorldConfig noisy;
  noisy.heart_bpm = 88.0;
  HubInstance a;
  a.app_ids = {AppId::kA2StepCounter};
  a.world = noisy;
  HubInstance b;
  b.app_ids = {AppId::kA5Blynk};

  const auto sc = Scenario::builder().add_hub(a).add_hub(b).build();
  const FleetView fleet = sc.fleet();
  ASSERT_EQ(fleet.size(), 2u);
  EXPECT_DOUBLE_EQ(fleet.hub(0).world->heart_bpm, 88.0);
  EXPECT_EQ(fleet.hub(1).world, &sc.world);  // falls back to the scenario world
}

TEST(FleetValidate, PerHubErrorsNameTheInstance) {
  HubInstance empty_apps;  // no app_ids
  HubInstance bad_count;
  bad_count.app_ids = {AppId::kA2StepCounter};
  bad_count.count = 0;
  sensors::WorldConfig bad_world;
  bad_world.heart_irregular_prob = 2.0;
  HubInstance bad_fault;
  bad_fault.app_ids = {AppId::kA5Blynk};
  bad_fault.world = bad_world;

  const auto errors = Scenario::builder()
                          .add_hub(empty_apps)
                          .add_hub(bad_count)
                          .add_hub(bad_fault)
                          .build()
                          .validate();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0].field, "hubs[0].app_ids");
  EXPECT_EQ(errors[1].field, "hubs[1].count");
  EXPECT_EQ(errors[2].field, "hubs[2].world.heart_irregular_prob");
}

TEST(FleetValidate, TopLevelAppsAndFleetAreMutuallyExclusive) {
  const auto errors = Scenario::builder()
                          .apps({AppId::kA2StepCounter})
                          .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk})
                          .build()
                          .validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "app_ids");
}

TEST(FleetValidate, DuplicateAppsWithinOneHubAreAnError) {
  const auto errors =
      Scenario::builder()
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter, AppId::kA2StepCounter})
          .build()
          .validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].field, "hubs[0].app_ids");
}

TEST(FleetRun, ExplicitOneHubFleetMatchesLegacyRunExactly) {
  const auto legacy = run_scenario(single());
  auto fleet_sc = Scenario::builder()
                      .scheme(Scheme::kCom)
                      .windows(2)
                      .add_hub(hw::default_hub_spec(),
                               {AppId::kA2StepCounter, AppId::kA7Earthquake})
                      .build();
  const auto fleet = run_scenario(fleet_sc);

  // Same seed (hub_seed identity at index 0), same operation order, no
  // shared hardware — only the component-name scope differs, which cannot
  // change the numbers.
  EXPECT_DOUBLE_EQ(fleet.total_joules(), legacy.total_joules());
  EXPECT_EQ(fleet.span, legacy.span);
  EXPECT_EQ(fleet.interrupts_raised, legacy.interrupts_raised);
  EXPECT_EQ(fleet.cpu_wakeups, legacy.cpu_wakeups);
  for (auto rt : energy::kAllRoutines) {
    EXPECT_DOUBLE_EQ(fleet.energy.joules(rt), legacy.energy.joules(rt));
  }
}

TEST(FleetRun, HubZeroOfTwoHubFleetMatchesStandaloneRun) {
  const auto standalone = run_scenario(single(Scheme::kBcom));

  const auto fleet = run_scenario(
      Scenario::builder()
          .scheme(Scheme::kBcom)
          .windows(2)
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter, AppId::kA7Earthquake})
          .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk})
          .build());
  ASSERT_EQ(fleet.hubs.size(), 2u);

  // Hubs share the clock but no hardware, so adding hub1 must not perturb
  // hub0's *activity*: every activity-driven routine matches the standalone
  // run bit for bit. Only kIdle grows — the shared clock runs until the
  // slowest hub finishes, and hub0's components idle-burn through that tail.
  const auto& hub0 = fleet.hubs[0];
  for (auto rt : energy::kAllRoutines) {
    if (rt == energy::Routine::kIdle) continue;
    EXPECT_DOUBLE_EQ(hub0.energy.joules(rt), standalone.energy.joules(rt))
        << "routine " << to_string(rt);
  }
  EXPECT_GE(hub0.energy.joules(energy::Routine::kIdle),
            standalone.energy.joules(energy::Routine::kIdle));
  EXPECT_EQ(hub0.interrupts_raised, standalone.interrupts_raised);
  EXPECT_EQ(hub0.cpu_wakeups, standalone.cpu_wakeups);
  ASSERT_EQ(hub0.apps.size(), 2u);
  const auto& a2 = hub0.apps.at(AppId::kA2StepCounter);
  const auto& a2_ref = standalone.apps.at(AppId::kA2StepCounter);
  EXPECT_EQ(a2.qos.mean_latency(), a2_ref.qos.mean_latency());
  EXPECT_EQ(a2.instructions, a2_ref.instructions);
}

TEST(FleetRun, FleetTotalsSumPerHubSections) {
  const auto r = run_scenario(Scenario::builder()
                                  .scheme(Scheme::kBatching)
                                  .windows(2)
                                  .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter}, 2)
                                  .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk})
                                  .build());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.hubs.size(), 3u);

  double hub_sum = 0.0;
  std::uint64_t interrupts = 0, wakeups = 0;
  for (const auto& hub : r.hubs) {
    hub_sum += hub.total_joules();
    interrupts += hub.interrupts_raised;
    wakeups += hub.cpu_wakeups;
  }
  EXPECT_NEAR(r.total_joules(), hub_sum, 1e-9 * hub_sum);
  EXPECT_EQ(r.interrupts_raised, interrupts);
  EXPECT_EQ(r.cpu_wakeups, wakeups);

  // Per-hub slices satisfy the accounting invariant on their own.
  for (const auto& hub : r.hubs) {
    double routine_sum = 0.0;
    for (auto rt : energy::kAllRoutines) routine_sum += hub.energy.joules(rt);
    double component_sum = 0.0;
    for (const auto& [name, row] : hub.energy.by_component()) {
      for (double j : row) component_sum += j;
    }
    EXPECT_NEAR(routine_sum, component_sum, 1e-9 * routine_sum);
  }
}

TEST(FleetRun, ComponentsAreScopedByHubName) {
  const auto legacy = run_scenario(single());
  EXPECT_EQ(legacy.energy.by_component().count("cpu"), 1u);
  EXPECT_EQ(legacy.energy.by_component().count("hub0/cpu"), 0u);

  const auto fleet = run_scenario(
      Scenario::builder()
          .windows(2)
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter}, 2)
          .build());
  EXPECT_EQ(fleet.energy.by_component().count("cpu"), 0u);
  EXPECT_EQ(fleet.energy.by_component().count("hub0/cpu"), 1u);
  EXPECT_EQ(fleet.energy.by_component().count("hub1/cpu"), 1u);
  // The per-hub report holds only that hub's components.
  ASSERT_EQ(fleet.hubs.size(), 2u);
  EXPECT_EQ(fleet.hubs[0].energy.by_component().count("hub0/cpu"), 1u);
  EXPECT_EQ(fleet.hubs[0].energy.by_component().count("hub1/cpu"), 0u);
}

/// The hubs of one shared ledger, run to the end. Hub i is named "hub<i>";
/// an empty `scope` keeps the single-hub path's flat component names.
struct LedgerFleet {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  std::deque<HubRuntime> hubs;
  sim::Duration span;

  LedgerFleet(int count, bool scoped) {
    for (int i = 0; i < count; ++i) {
      HubRuntime::Config cfg;
      cfg.name = "hub" + std::to_string(i);
      cfg.component_scope = scoped ? cfg.name : "";
      cfg.spec = hw::default_hub_spec();
      // Apps with different sensor counts give the hubs slices of
      // different lengths.
      cfg.app_ids = i % 3 == 0   ? std::vector<AppId>{AppId::kA2StepCounter}
                    : i % 3 == 1 ? std::vector<AppId>{AppId::kA5Blynk, AppId::kA7Earthquake}
                                 : std::vector<AppId>{AppId::kA6Dropbox};
      cfg.scheme = Scheme::kBatching;
      cfg.windows = 2;
      cfg.seed = 100 + static_cast<std::uint64_t>(i);
      cfg.hub_index = static_cast<std::size_t>(i);
      hubs.emplace_back(sim, acct, std::move(cfg));
    }
    for (HubRuntime& h : hubs) h.start();
    sim.run();
    for (HubRuntime& h : hubs) h.flush_power();
    span = sim.now() - sim::SimTime::origin();
  }
};

TEST(FleetHarvest, HubReportsEqualABruteForceFilterOfTheLedgerByName) {
  // 12 hubs, so "hub1/" must not match hub10's and hub11's components.
  LedgerFleet fleet{12, /*scoped=*/true};
  std::size_t matched = 0;
  for (std::size_t i = 0; i < fleet.hubs.size(); ++i) {
    const HubResult hr = fleet.hubs[i].harvest(fleet.acct, fleet.span);
    const std::string hub_name = "hub" + std::to_string(i);
    const std::string prefix = hub_name + "/";

    std::map<std::string, std::array<double, energy::kRoutineCount>> rows;
    std::array<double, energy::kRoutineCount> routine_j{};
    std::array<sim::Duration, energy::kRoutineCount> busy{};
    for (energy::ComponentId c = 0; c < fleet.acct.component_count(); ++c) {
      const std::string& name = fleet.acct.component_name(c);
      if (name.compare(0, prefix.size(), prefix) != 0) continue;
      auto& row = rows[name];
      for (auto rt : energy::kAllRoutines) {
        const auto r = energy::index_of(rt);
        row[r] += fleet.acct.joules(c, rt);
        routine_j[r] += fleet.acct.joules(c, rt);
        busy[r] += fleet.acct.busy_time(c, rt);
      }
    }
    ASSERT_FALSE(rows.empty()) << hub_name;
    matched += rows.size();
    EXPECT_EQ(hr.energy.by_component(), rows) << hub_name;
    for (auto rt : energy::kAllRoutines) {
      EXPECT_EQ(hr.energy.joules(rt), routine_j[energy::index_of(rt)]) << hub_name;
      EXPECT_EQ(hr.energy.busy_time(rt), busy[energy::index_of(rt)]) << hub_name;
    }
  }
  // Every component of the ledger belongs to exactly one hub.
  EXPECT_EQ(matched, fleet.acct.component_count());
}

TEST(FleetHarvest, SingleHubSliceIsTheWholeLedger) {
  LedgerFleet fleet{1, /*scoped=*/false};
  const HubResult hr = fleet.hubs.front().harvest(fleet.acct, fleet.span);
  const auto whole = energy::EnergyReport::from_accountant(fleet.acct, fleet.span);
  EXPECT_EQ(hr.energy.by_component(), whole.by_component());
  EXPECT_EQ(hr.energy.total_joules(), whole.total_joules());
  EXPECT_EQ(hr.energy.by_component().count("cpu"), 1u);  // flat names
}

TEST(FleetRun, CountExpandedHubsDrawDistinctRngStreams) {
  env::EnvironmentConfig faulty;
  faulty.faults.fault_prob = 0.3;
  HubInstance inst;
  inst.app_ids = {AppId::kA2StepCounter};
  inst.environment = faulty;
  inst.count = 2;

  const auto r = run_scenario(Scenario::builder().windows(2).add_hub(inst).build());
  ASSERT_EQ(r.hubs.size(), 2u);
  // Identical hubs, but each copy forks its fault draws from its own derived
  // seed — some observable consequence of the differing draws must show.
  const auto& h0 = r.hubs[0];
  const auto& h1 = r.hubs[1];
  const auto& q0 = h0.apps.at(AppId::kA2StepCounter).qos;
  const auto& q1 = h1.apps.at(AppId::kA2StepCounter).qos;
  EXPECT_TRUE(q0.worst_sample_jitter != q1.worst_sample_jitter ||
              h0.sensor_read_errors != h1.sensor_read_errors ||
              h0.total_joules() != h1.total_joules())
      << "count-expanded hubs behaved identically: seed derivation broken?";
}

TEST(FleetRun, MultiHubResultKeepsFlatAppSectionsEmpty) {
  const auto r = run_scenario(
      Scenario::builder()
          .windows(2)
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter})
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter})
          .build());
  ASSERT_TRUE(r.ok());
  // AppIds may repeat across hubs, so per-app data lives in the hub
  // sections; the flat single-hub fields stay empty.
  EXPECT_TRUE(r.apps.empty());
  EXPECT_TRUE(r.plan.decisions.empty());
  EXPECT_EQ(r.hubs[0].apps.size(), 1u);
  EXPECT_EQ(r.hubs[1].apps.size(), 1u);
  EXPECT_NE(r.qos_summary.find("hub0:"), std::string::npos);
  EXPECT_NE(r.qos_summary.find("hub1:"), std::string::npos);
}

TEST(FleetRun, SingleHubResultStillMirrorsFlatSections) {
  const auto r = run_scenario(single());
  ASSERT_EQ(r.hubs.size(), 1u);
  EXPECT_EQ(r.hubs[0].name, "hub0");
  EXPECT_EQ(r.apps.size(), 2u);
  EXPECT_EQ(r.hubs[0].apps.size(), 2u);
  EXPECT_DOUBLE_EQ(r.hubs[0].total_joules(), r.total_joules());
  EXPECT_EQ(r.qos_summary.find("hub0:"), std::string::npos);  // legacy format
}

TEST(FleetRun, ResultJsonCarriesHubSections) {
  const auto r = run_scenario(
      Scenario::builder()
          .windows(2)
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter})
          .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk})
          .build());
  const std::string json = to_json_text(r);
  EXPECT_NE(json.find("\"hubs\""), std::string::npos);
  EXPECT_NE(json.find("\"hub0\""), std::string::npos);
  EXPECT_NE(json.find("\"hub1\""), std::string::npos);
}

TEST(FleetRun, QosMetAndsOverHubs) {
  // A fleet where one hub trivially meets QoS and the others exist only to
  // prove the AND: all hubs met here.
  const auto r = run_scenario(
      Scenario::builder()
          .scheme(Scheme::kBcom)
          .windows(2)
          .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter})
          .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk})
          .build());
  bool all = true;
  for (const auto& hub : r.hubs) all = all && hub.qos_met;
  EXPECT_EQ(r.qos_met, all);
}

}  // namespace
}  // namespace iotsim::core
