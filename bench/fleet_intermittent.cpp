// Fleet intermittency — beyond the paper: the same mixed-portfolio fleet as
// fleet_scale, but run through the environment layer's fault worlds and
// online power sources. One scenario per environment profile (clean, iid,
// Gilbert-Elliott bursts, degrading sensors, crash/reboot, battery,
// battery+harvesting), reporting uptime, sample/window losses and the
// energy-neutral margin next to the fleet energy.
//
// The closing section is the determinism gate for intermittent operation: a
// mixed fleet — crashing+bursty hubs, solar-harvesting hubs and plain mains
// hubs side by side — is run single-threaded and sharded across --jobs
// workers, and the two ScenarioResult JSON texts must be byte-identical.
#include <optional>
#include <thread>

#include "bench_util.h"
#include "core/result_json.h"

using namespace iotsim;

namespace {

const std::vector<std::vector<apps::AppId>>& portfolios() {
  using apps::AppId;
  static const std::vector<std::vector<apps::AppId>> p = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  return p;
}

/// One named environment profile of the sweep; nullopt ⇒ the legacy
/// always-on world (the clean control row).
struct Profile {
  const char* name;
  std::optional<env::EnvironmentConfig> environment;
};

env::EnvironmentConfig iid_profile() {
  env::EnvironmentConfig e;
  e.faults.model = env::FaultModel::kIid;
  e.faults.fault_prob = 0.05;
  return e;
}

env::EnvironmentConfig bursty_profile() {
  env::EnvironmentConfig e;
  e.faults.model = env::FaultModel::kGilbertElliott;
  e.faults.burst_enter_prob = 0.05;
  e.faults.burst_exit_prob = 0.3;
  e.faults.good_fault_prob = 0.01;
  e.faults.burst_fault_prob = 0.8;
  return e;
}

env::EnvironmentConfig degrading_profile() {
  env::EnvironmentConfig e;
  e.faults.model = env::FaultModel::kDegrading;
  e.faults.fault_prob = 0.02;
  e.faults.degrade_per_hour = 120.0;  // visible drift within a short run
  e.faults.degrade_cap = 0.4;
  return e;
}

env::EnvironmentConfig crashy_profile() {
  env::EnvironmentConfig e;
  e.crash.crash_prob_per_window = 0.08;
  e.crash.reboot_windows = 1;
  return e;
}

env::EnvironmentConfig battery_profile() {
  env::EnvironmentConfig e;
  e.power.model = env::PowerModel::kBattery;
  e.power.battery_capacity_wh = 0.0005;  // 1.8 J — runs dry mid-run
  return e;
}

env::EnvironmentConfig solar_profile() {
  env::EnvironmentConfig e = battery_profile();
  e.power.model = env::PowerModel::kHarvesting;
  e.power.harvest.peak_w = 2.0;
  e.power.harvest.period_s = 4.0;
  e.power.harvest.duty = 0.5;
  return e;
}

const std::vector<Profile>& profiles() {
  static const std::vector<Profile> p = {
      {"clean", std::nullopt},
      {"iid", iid_profile()},
      {"bursty", bursty_profile()},
      {"degrading", degrading_profile()},
      {"crashy", crashy_profile()},
      {"battery", battery_profile()},
      {"solar", solar_profile()},
  };
  return p;
}

core::Scenario fleet_scenario(int hubs, int windows, const Profile& profile) {
  auto builder = core::Scenario::builder()
                     .scheme(core::Scheme::kBcom)
                     .windows(windows)
                     .world(bench::active_world());
  if (profile.environment) builder.environment(*profile.environment);
  const auto& mixes = portfolios();
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), mixes[static_cast<std::size_t>(i) % mixes.size()]);
  }
  return builder.build();
}

/// The mixed fleet of the sharded-determinism gate: crashing+bursty hubs,
/// solar hubs and plain mains hubs in one scenario, via per-hub overrides.
core::Scenario mixed_fleet(int hubs, int windows) {
  env::EnvironmentConfig chaotic = bursty_profile();
  chaotic.crash = crashy_profile().crash;
  const int third = hubs / 3;
  return core::Scenario::builder()
      .scheme(core::Scheme::kBcom)
      .windows(windows)
      .world(bench::active_world())
      .add_hub(hw::default_hub_spec(), portfolios()[0], third)
      .hub_environment(chaotic)
      .add_hub(hw::default_hub_spec(), portfolios()[1], third)
      .hub_environment(solar_profile())
      .add_hub(hw::default_hub_spec(), portfolios()[2], hubs - 2 * third)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv, bench::Options::with_windows(6))};
  const int hubs = session.hubs_or(96);
  std::cout << "=== Fleet intermittency: " << hubs
            << " BCOM hubs across environment profiles ===\n\n";

  std::vector<core::Scenario> sweep;
  for (const auto& profile : profiles()) {
    sweep.push_back(fleet_scenario(hubs, session.windows(), profile));
  }
  session.prefetch(sweep);

  trace::TablePrinter t{{"Profile", "Uptime", "Windows lost", "Reboots", "Lost f/o/c",
                         "Fleet J", "Billed J", "Harvested J", "Margin"}};
  using TP = trace::TablePrinter;
  for (const auto& profile : profiles()) {
    const auto r = session.run(fleet_scenario(hubs, session.windows(), profile));
    if (!r.ok()) {
      std::cerr << "fleet scenario invalid (" << profile.name << ")\n";
      return 1;
    }
    const auto& a = r.energy.availability();
    const std::uint64_t hub_windows =
        static_cast<std::uint64_t>(hubs) * static_cast<std::uint64_t>(session.windows());
    const double uptime =
        1.0 - static_cast<double>(a.windows_lost) / static_cast<double>(hub_windows);
    t.add_row({profile.name, TP::pct(uptime), std::to_string(a.windows_lost),
               std::to_string(a.reboots),
               std::to_string(a.samples_lost_faults) + "/" +
                   std::to_string(a.samples_lost_outage) + "/" +
                   std::to_string(a.samples_lost_crash),
               TP::num(r.total_joules(), 5), TP::num(a.billed_j, 5),
               TP::num(a.harvested_j, 5), TP::num(a.energy_neutral_margin(), 4)});
  }
  std::cout << t.render() << '\n';
  std::cout << "Losses split by cause (faults/outage/crash); the margin is\n"
               "harvested/billed for power-limited fleets (>= 1 means the solar\n"
               "profile ran energy-neutrally over the modeled horizon).\n";

  // --- Sharded determinism under intermittent operation --------------------
  const int shard_jobs = [&] {
    if (session.options().jobs > 0) return session.options().jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  std::cout << "\nMixed intermittent fleet (crash+burst / solar / mains thirds): " << hubs
            << " hubs, 1 vs " << shard_jobs << " shards\n";

  const core::Scenario mixed = mixed_fleet(hubs, session.windows());
  const core::ScenarioResult single = core::run_scenario(mixed, core::ExecPolicy{});
  const core::ScenarioResult sharded =
      core::run_scenario(mixed, core::ExecPolicy{.shards = shard_jobs});
  const bool identical = core::to_json_text(single) == core::to_json_text(sharded);

  const auto& mixed_avail = single.energy.availability();
  std::cout << "mixed fleet: reboots=" << mixed_avail.reboots
            << " windows_lost=" << mixed_avail.windows_lost
            << " harvested_j=" << TP::num(mixed_avail.harvested_j, 5) << '\n';
  std::cout << "sharded vs single-thread ScenarioResult JSON: "
            << (identical ? "byte-identical" : "DIVERGED") << '\n';

  return identical ? 0 : 1;
}
