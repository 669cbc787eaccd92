// scenario_key() completeness: every field of Scenario — including the
// embedded WorldConfig, HubSpec, and the fleet HubInstance list — must feed
// the sweep memo's content hash. Each mutator below flips exactly one field
// and asserts the key changes; forgetting to extend scenario_key() when
// adding a field makes the matching case here fail (or, for a brand-new
// field, the coverage reminder in core/scenario.h applies).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "core/sweep.h"

namespace iotsim::core {
namespace {

using apps::AppId;

/// A scenario with nothing at its default value, so "mutation changed the
/// key" can't be confused with "mutation restored a default".
Scenario rich_scenario() {
  sensors::WorldConfig world;
  world.quakes = {{1.0, 0.5, 2.0}};
  world.utterances = {{0.5, 3}};
  world.heart_bpm = 80.0;
  world.heart_irregular_prob = 0.1;
  world.walking_cadence_hz = 2.1;

  return Scenario::builder()
      .apps({AppId::kA2StepCounter, AppId::kA7Earthquake})
      .scheme(Scheme::kCom)
      .windows(3)
      .seed(7)
      .world(world)
      .record_power_trace()
      .batch_flushes_per_window(2)
      .mcu_speed_factor(1.5)
      .build();
}

struct Mutation {
  const char* name;
  std::function<void(Scenario&)> apply;
};

/// Every scalar knob of a HubSpec, expressed as mutations of whichever
/// HubSpec the `pick` accessor selects (the legacy hub or a fleet hub).
std::vector<Mutation> hub_spec_mutations(std::function<hw::HubSpec&(Scenario&)> pick) {
  auto on = [&pick](void (*f)(hw::HubSpec&)) {
    return [pick, f](Scenario& sc) { f(pick(sc)); };
  };
  std::vector<Mutation> m;
  auto add = [&](const char* field, void (*f)(hw::HubSpec&)) {
    m.push_back({field, on(f)});
  };
  add("cpu.active_w", [](hw::HubSpec& h) { h.cpu.active_w += 0.25; });
  add("cpu.busy_w", [](hw::HubSpec& h) { h.cpu.busy_w += 0.25; });
  add("cpu.light_sleep_w", [](hw::HubSpec& h) { h.cpu.light_sleep_w += 0.25; });
  add("cpu.deep_sleep_w", [](hw::HubSpec& h) { h.cpu.deep_sleep_w += 0.25; });
  add("cpu.transition_w", [](hw::HubSpec& h) { h.cpu.transition_w += 0.25; });
  add("cpu.light_wake_latency",
      [](hw::HubSpec& h) { h.cpu.light_wake_latency = h.cpu.light_wake_latency * 2; });
  add("cpu.deep_wake_latency",
      [](hw::HubSpec& h) { h.cpu.deep_wake_latency = h.cpu.deep_wake_latency * 2; });
  add("mcu.active_w", [](hw::HubSpec& h) { h.mcu.active_w += 0.25; });
  add("mcu.sleep_w", [](hw::HubSpec& h) { h.mcu.sleep_w += 0.25; });
  add("mcu.transition_w", [](hw::HubSpec& h) { h.mcu.transition_w += 0.25; });
  add("mcu.wake_latency", [](hw::HubSpec& h) { h.mcu.wake_latency = h.mcu.wake_latency * 2; });
  add("pio_bus.active_w", [](hw::HubSpec& h) { h.pio_bus.active_w += 0.25; });
  add("pio_bus.idle_w", [](hw::HubSpec& h) { h.pio_bus.idle_w += 0.25; });
  add("link_bus.active_w", [](hw::HubSpec& h) { h.link_bus.active_w += 0.25; });
  add("link_bus.idle_w", [](hw::HubSpec& h) { h.link_bus.idle_w += 0.25; });
  add("main_nic.tx_w", [](hw::HubSpec& h) { h.main_nic.tx_w += 0.25; });
  add("main_nic.rx_w", [](hw::HubSpec& h) { h.main_nic.rx_w += 0.25; });
  add("main_nic.idle_w", [](hw::HubSpec& h) { h.main_nic.idle_w += 0.25; });
  add("main_nic.bytes_per_second",
      [](hw::HubSpec& h) { h.main_nic.bytes_per_second *= 2.0; });
  add("main_nic.tail", [](hw::HubSpec& h) { h.main_nic.tail = h.main_nic.tail * 2; });
  add("mcu_nic.tx_w", [](hw::HubSpec& h) { h.mcu_nic.tx_w += 0.25; });
  add("mcu_nic.rx_w", [](hw::HubSpec& h) { h.mcu_nic.rx_w += 0.25; });
  add("mcu_nic.idle_w", [](hw::HubSpec& h) { h.mcu_nic.idle_w += 0.25; });
  add("mcu_nic.bytes_per_second",
      [](hw::HubSpec& h) { h.mcu_nic.bytes_per_second *= 2.0; });
  add("mcu_nic.tail", [](hw::HubSpec& h) { h.mcu_nic.tail = h.mcu_nic.tail * 2; });
  add("main_board_base_w", [](hw::HubSpec& h) { h.main_board_base_w += 0.25; });
  add("mcu_board_base_w", [](hw::HubSpec& h) { h.mcu_board_base_w += 0.25; });
  add("dma_enabled", [](hw::HubSpec& h) { h.dma_enabled = !h.dma_enabled; });
  add("dma_setup", [](hw::HubSpec& h) { h.dma_setup = h.dma_setup + sim::Duration::from_us(5); });
  add("transfer_fixed_overhead", [](hw::HubSpec& h) {
    h.transfer_fixed_overhead = h.transfer_fixed_overhead + sim::Duration::from_us(5);
  });
  add("transfer_per_byte", [](hw::HubSpec& h) {
    h.transfer_per_byte = h.transfer_per_byte + sim::Duration::from_us(1);
  });
  add("interrupt_raise", [](hw::HubSpec& h) {
    h.interrupt_raise = h.interrupt_raise + sim::Duration::from_us(5);
  });
  add("interrupt_dispatch", [](hw::HubSpec& h) {
    h.interrupt_dispatch = h.interrupt_dispatch + sim::Duration::from_us(5);
  });
  add("mcu_ram_bytes", [](hw::HubSpec& h) { h.mcu_ram_bytes += 1024; });
  add("mcu_firmware_reserved", [](hw::HubSpec& h) { h.mcu_firmware_reserved += 1024; });
  add("mcu_buffer_store", [](hw::HubSpec& h) {
    h.mcu_buffer_store = h.mcu_buffer_store + sim::Duration::from_us(5);
  });
  add("cpu_nominal_mips", [](hw::HubSpec& h) { h.cpu_nominal_mips *= 2.0; });
  add("mcu_nominal_mips", [](hw::HubSpec& h) { h.mcu_nominal_mips *= 2.0; });
  return m;
}

/// Every mutation of a WorldConfig reached through `pick`.
std::vector<Mutation> world_mutations(std::function<sensors::WorldConfig&(Scenario&)> pick) {
  auto on = [&pick](void (*f)(sensors::WorldConfig&)) {
    return [pick, f](Scenario& sc) { f(pick(sc)); };
  };
  return {
      {"quakes.size", on([](sensors::WorldConfig& w) { w.quakes.push_back({2.0, 0.1, 1.0}); })},
      {"quakes.start_s", on([](sensors::WorldConfig& w) { w.quakes[0].start_s += 0.5; })},
      {"quakes.duration_s", on([](sensors::WorldConfig& w) { w.quakes[0].duration_s += 0.1; })},
      {"quakes.magnitude", on([](sensors::WorldConfig& w) { w.quakes[0].magnitude += 0.5; })},
      {"utterances.size",
       on([](sensors::WorldConfig& w) { w.utterances.push_back({1.5, 1}); })},
      {"utterances.start_s", on([](sensors::WorldConfig& w) { w.utterances[0].start_s += 0.2; })},
      {"utterances.word_id", on([](sensors::WorldConfig& w) { w.utterances[0].word_id += 1; })},
      {"heart_bpm", on([](sensors::WorldConfig& w) { w.heart_bpm += 5.0; })},
      {"heart_irregular_prob",
       on([](sensors::WorldConfig& w) { w.heart_irregular_prob += 0.1; })},
      {"walking_cadence_hz", on([](sensors::WorldConfig& w) { w.walking_cadence_hz += 0.3; })},
  };
}

/// Every field of an EnvironmentConfig reached through `pick`, each away
/// from its default in the base scenario so no mutation restores a default.
std::vector<Mutation> environment_mutations(
    std::function<env::EnvironmentConfig&(Scenario&)> pick) {
  auto on = [&pick](void (*f)(env::EnvironmentConfig&)) {
    return [pick, f](Scenario& sc) { f(pick(sc)); };
  };
  return {
      {"faults.model",
       on([](env::EnvironmentConfig& e) { e.faults.model = env::FaultModel::kDegrading; })},
      {"faults.fault_prob", on([](env::EnvironmentConfig& e) { e.faults.fault_prob += 0.01; })},
      {"faults.burst_enter_prob",
       on([](env::EnvironmentConfig& e) { e.faults.burst_enter_prob += 0.01; })},
      {"faults.burst_exit_prob",
       on([](env::EnvironmentConfig& e) { e.faults.burst_exit_prob += 0.05; })},
      {"faults.good_fault_prob",
       on([](env::EnvironmentConfig& e) { e.faults.good_fault_prob += 0.01; })},
      {"faults.burst_fault_prob",
       on([](env::EnvironmentConfig& e) { e.faults.burst_fault_prob -= 0.1; })},
      {"faults.degrade_per_hour",
       on([](env::EnvironmentConfig& e) { e.faults.degrade_per_hour += 0.02; })},
      {"faults.degrade_cap", on([](env::EnvironmentConfig& e) { e.faults.degrade_cap -= 0.1; })},
      {"crash.crash_prob_per_window",
       on([](env::EnvironmentConfig& e) { e.crash.crash_prob_per_window += 0.01; })},
      {"crash.reboot_windows",
       on([](env::EnvironmentConfig& e) { e.crash.reboot_windows += 1; })},
      {"power.model",
       on([](env::EnvironmentConfig& e) { e.power.model = env::PowerModel::kBattery; })},
      {"power.battery_capacity_wh",
       on([](env::EnvironmentConfig& e) { e.power.battery_capacity_wh += 0.5; })},
      {"power.battery_usable_fraction",
       on([](env::EnvironmentConfig& e) { e.power.battery_usable_fraction -= 0.1; })},
      {"power.initial_soc", on([](env::EnvironmentConfig& e) { e.power.initial_soc -= 0.1; })},
      {"power.resume_soc", on([](env::EnvironmentConfig& e) { e.power.resume_soc += 0.05; })},
      {"power.harvest.peak_w",
       on([](env::EnvironmentConfig& e) { e.power.harvest.peak_w += 0.1; })},
      {"power.harvest.period_s",
       on([](env::EnvironmentConfig& e) { e.power.harvest.period_s += 1.0; })},
      {"power.harvest.duty", on([](env::EnvironmentConfig& e) { e.power.harvest.duty -= 0.2; })},
      {"power.harvest.phase_s",
       on([](env::EnvironmentConfig& e) { e.power.harvest.phase_s += 0.5; })},
  };
}

/// An environment with every optional knob away from its default.
env::EnvironmentConfig rich_environment() {
  env::EnvironmentConfig e;
  e.faults.model = env::FaultModel::kGilbertElliott;
  e.faults.fault_prob = 0.03;
  e.faults.burst_enter_prob = 0.02;
  e.faults.burst_exit_prob = 0.3;
  e.faults.good_fault_prob = 0.01;
  e.faults.burst_fault_prob = 0.8;
  e.faults.degrade_per_hour = 0.05;
  e.faults.degrade_cap = 0.4;
  e.crash.crash_prob_per_window = 0.05;
  e.crash.reboot_windows = 2;
  e.power.model = env::PowerModel::kHarvesting;
  e.power.battery_capacity_wh = 2.0;
  e.power.battery_usable_fraction = 0.8;
  e.power.initial_soc = 0.9;
  e.power.resume_soc = 0.2;
  e.power.harvest.peak_w = 0.5;
  e.power.harvest.period_s = 10.0;
  e.power.harvest.duty = 0.5;
  e.power.harvest.phase_s = 1.0;
  return e;
}

void expect_all_change_key(const Scenario& base, const std::vector<Mutation>& mutations,
                           const std::string& label) {
  const std::string base_key = scenario_key(base);
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    Scenario mutated = base;
    mutations[i].apply(mutated);
    EXPECT_NE(scenario_key(mutated), base_key)
        << label << " mutation #" << i
        << (mutations[i].name ? std::string{" ("} + mutations[i].name + ")" : std::string{})
        << " did not change the memo key";
  }
}

TEST(ScenarioKey, TopLevelFieldsAllFeedTheKey) {
  const std::vector<Mutation> mutations = {
      {"app_ids", [](Scenario& sc) { sc.app_ids.push_back(AppId::kA5Blynk); }},
      {"app_ids order",
       [](Scenario& sc) { std::swap(sc.app_ids[0], sc.app_ids[1]); }},
      {"scheme", [](Scenario& sc) { sc.scheme = Scheme::kBcom; }},
      {"windows", [](Scenario& sc) { sc.windows += 1; }},
      {"seed", [](Scenario& sc) { sc.seed += 1; }},
      {"record_power_trace", [](Scenario& sc) { sc.record_power_trace = false; }},
      {"batch_flushes_per_window", [](Scenario& sc) { sc.batch_flushes_per_window += 1; }},
      {"mcu_speed_factor", [](Scenario& sc) { sc.mcu_speed_factor += 0.5; }},
  };
  expect_all_change_key(rich_scenario(), mutations, "Scenario");
}

TEST(ScenarioKey, WorldConfigFieldsAllFeedTheKey) {
  expect_all_change_key(rich_scenario(),
                        world_mutations([](Scenario& sc) -> sensors::WorldConfig& {
                          return sc.world;
                        }),
                        "WorldConfig");
}

TEST(ScenarioKey, HubSpecFieldsAllFeedTheKey) {
  expect_all_change_key(rich_scenario(),
                        hub_spec_mutations([](Scenario& sc) -> hw::HubSpec& { return sc.hub; }),
                        "HubSpec");
}

/// A fleet scenario exercising the hubs[] section of the key.
Scenario fleet_scenario() {
  sensors::WorldConfig override_world;
  override_world.heart_bpm = 95.0;
  override_world.quakes = {{1.0, 0.5, 2.0}};
  override_world.utterances = {{0.5, 3}};
  HubInstance a;
  a.app_ids = {AppId::kA2StepCounter};
  a.world = override_world;
  a.count = 2;
  HubInstance b;
  b.app_ids = {AppId::kA5Blynk};
  return Scenario::builder().windows(3).add_hub(a).add_hub(b).build();
}

TEST(ScenarioKey, HubInstanceFieldsAllFeedTheKey) {
  const std::vector<Mutation> mutations = {
      {"hubs.size",
       [](Scenario& sc) { sc.hubs.push_back(sc.hubs.back()); }},
      {"hubs[0].app_ids",
       [](Scenario& sc) { sc.hubs[0].app_ids.push_back(AppId::kA7Earthquake); }},
      {"hubs[0].count", [](Scenario& sc) { sc.hubs[0].count += 1; }},
      {"hubs[0].world presence", [](Scenario& sc) { sc.hubs[0].world.reset(); }},
      {"hubs[1].world presence",
       [](Scenario& sc) { sc.hubs[1].world = sensors::WorldConfig{}; }},
      {"hubs[0].world content",
       [](Scenario& sc) { sc.hubs[0].world->heart_bpm += 5.0; }},
      {"hubs order", [](Scenario& sc) { std::swap(sc.hubs[0], sc.hubs[1]); }},
  };
  expect_all_change_key(fleet_scenario(), mutations, "HubInstance");
}

TEST(ScenarioKey, FleetHubSpecFieldsAllFeedTheKey) {
  expect_all_change_key(fleet_scenario(),
                        hub_spec_mutations(
                            [](Scenario& sc) -> hw::HubSpec& { return sc.hubs[0].hub; }),
                        "fleet HubSpec");
}

TEST(ScenarioKey, FleetWorldOverrideFieldsAllFeedTheKey) {
  expect_all_change_key(fleet_scenario(),
                        world_mutations([](Scenario& sc) -> sensors::WorldConfig& {
                          return *sc.hubs[0].world;
                        }),
                        "fleet WorldConfig");
}

/// Network-attached variant: exercises the optional ApConfig section with
/// every field away from its default.
Scenario networked_scenario() {
  Scenario sc = rich_scenario();
  net::ApConfig ap;
  ap.bytes_per_second = 6.25e5;
  ap.queue_depth = 16;
  ap.backoff = net::BackoffPolicy::kCsma;
  ap.backoff_slot = sim::Duration::from_us(250.0);
  ap.max_backoff_exponent = 5;
  ap.reservation_window = sim::Duration::ms(10);
  sc.network = ap;
  return sc;
}

TEST(ScenarioKey, NetworkConfigFieldsAllFeedTheKey) {
  const std::vector<Mutation> mutations = {
      {"network presence", [](Scenario& sc) { sc.network.reset(); }},
      {"network.bytes_per_second",
       [](Scenario& sc) { sc.network->bytes_per_second *= 2.0; }},
      {"network.queue_depth", [](Scenario& sc) { sc.network->queue_depth += 1; }},
      {"network.backoff",
       [](Scenario& sc) { sc.network->backoff = net::BackoffPolicy::kFifo; }},
      {"network.backoff_slot",
       [](Scenario& sc) { sc.network->backoff_slot = sc.network->backoff_slot * 2; }},
      {"network.max_backoff_exponent",
       [](Scenario& sc) { sc.network->max_backoff_exponent += 1; }},
      {"network.reservation_window",
       [](Scenario& sc) { sc.network->reservation_window = sc.network->reservation_window * 2; }},
  };
  expect_all_change_key(networked_scenario(), mutations, "ApConfig");
}

TEST(ScenarioKey, ScenarioEnvironmentFieldsAllFeedTheKey) {
  Scenario base = rich_scenario();
  base.environment = rich_environment();
  std::vector<Mutation> mutations = environment_mutations(
      [](Scenario& sc) -> env::EnvironmentConfig& { return *sc.environment; });
  mutations.push_back({"environment presence", [](Scenario& sc) { sc.environment.reset(); }});
  expect_all_change_key(base, mutations, "Scenario environment");
}

TEST(ScenarioKey, HubInstanceEnvironmentFieldsAllFeedTheKey) {
  Scenario base = fleet_scenario();
  base.hubs[0].environment = rich_environment();
  std::vector<Mutation> mutations = environment_mutations(
      [](Scenario& sc) -> env::EnvironmentConfig& { return *sc.hubs[0].environment; });
  mutations.push_back(
      {"hubs[0].environment presence", [](Scenario& sc) { sc.hubs[0].environment.reset(); }});
  mutations.push_back({"hubs[1].environment presence", [](Scenario& sc) {
                         sc.hubs[1].environment = env::EnvironmentConfig{};
                       }});
  expect_all_change_key(base, mutations, "HubInstance environment");
}

TEST(ScenarioKey, LegacyAndEquivalentFleetScenarioKeysDiffer) {
  // The one-hub fleet desugars to the same simulation, but the memo must
  // still distinguish the spellings: their results differ in shape
  // (component scoping, hub sections).
  const auto legacy = Scenario::builder().apps({AppId::kA2StepCounter}).build();
  const auto fleet =
      Scenario::builder().add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter}).build();
  EXPECT_NE(scenario_key(legacy), scenario_key(fleet));
}

TEST(ScenarioKey, IdenticalScenariosShareAKey) {
  EXPECT_EQ(scenario_key(rich_scenario()), scenario_key(rich_scenario()));
  EXPECT_EQ(scenario_key(fleet_scenario()), scenario_key(fleet_scenario()));
  EXPECT_EQ(scenario_key(networked_scenario()), scenario_key(networked_scenario()));
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(ScenarioKey, BytesArePinnedToTheTag) {
  // The key names every disk-cache entry, so its bytes may only move
  // together with the version tag in scenario_key(). Each constant is the
  // FNV-1a of the key under tag "iotSim06".
  const Scenario single = Scenario::builder().apps({AppId::kA2StepCounter}).build();

  Scenario windowed = fleet_scenario();
  net::ApConfig ap;
  ap.bytes_per_second = 2.5e5;
  ap.queue_depth = 8;
  ap.reservation_window = sim::Duration::ms(10);
  windowed.network = ap;

  Scenario overrides = fleet_scenario();
  overrides.hubs[0].environment = rich_environment();
  overrides.hubs[1].world = sensors::WorldConfig{};
  overrides.hubs[1].environment = env::EnvironmentConfig{};

  const struct {
    const char* name;
    const Scenario& scenario;
    std::uint64_t fnv;
  } pinned[] = {
      {"default single hub", single, 0xcce20778cdaf6eb6ull},
      {"fleet behind a windowed AP", windowed, 0xf29b3e27132d7103ull},
      {"fleet with per-hub world and environment", overrides, 0xceb3cda2cc023265ull},
  };
  for (const auto& p : pinned) {
    EXPECT_EQ(fnv1a(scenario_key(p.scenario)), p.fnv)
        << p.name << ": the scenario_key() bytes changed; bump the tag and the constants together";
  }
}

}  // namespace
}  // namespace iotsim::core
