#include "workloads.h"

#include <sched.h>

#include "apps/workload_spec.h"
#include "hw/boards.h"

namespace perfbench {

using iotsim::apps::AppId;
using iotsim::core::Scenario;
using iotsim::core::Scheme;

namespace {

/// Activity on every channel, so the app kernels have real work: two
/// seismic bursts, scheduled voice commands, a regular heart.
iotsim::sensors::WorldConfig active_world() {
  iotsim::sensors::WorldConfig world;
  world.quakes = {{1.35, 0.25, 1.2}, {3.6, 0.3, 2.0}};
  world.utterances = {{0.2, 0}, {1.3, 2}, {2.4, 4}, {3.5, 1}, {4.3, 5}};
  world.heart_bpm = 72.0;
  world.heart_irregular_prob = 0.0;
  return world;
}

Scenario single_hub(std::uint64_t seed, std::vector<AppId> ids, Scheme scheme) {
  return Scenario::builder()
      .apps(std::move(ids))
      .scheme(scheme)
      .windows(kPaperWindows)
      .seed(seed)
      .world(active_world())
      .build();
}

const std::vector<std::vector<AppId>>& fig11_combos() {
  static const std::vector<std::vector<AppId>> combos = {
      {AppId::kA2StepCounter, AppId::kA5Blynk},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA4M2x, AppId::kA5Blynk},
      {AppId::kA3ArduinoJson, AppId::kA5Blynk},
      {AppId::kA2StepCounter, AppId::kA7Earthquake},
      {AppId::kA2StepCounter, AppId::kA4M2x},
      {AppId::kA4M2x, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
      {AppId::kA2StepCounter, AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA5Blynk},
      {AppId::kA4M2x, AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x, AppId::kA5Blynk},
      {AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA7Earthquake},
      {AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA5Blynk, AppId::kA7Earthquake},
  };
  return combos;
}

/// Wellness wearable, environment/home and telemetry hubs.
const std::vector<std::vector<AppId>>& portfolios() {
  static const std::vector<std::vector<AppId>> p = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  return p;
}

iotsim::env::EnvironmentConfig bursty_crashy() {
  iotsim::env::EnvironmentConfig e;
  e.faults.model = iotsim::env::FaultModel::kGilbertElliott;
  e.faults.burst_enter_prob = 0.05;
  e.faults.burst_exit_prob = 0.3;
  e.faults.good_fault_prob = 0.01;
  e.faults.burst_fault_prob = 0.8;
  e.crash.crash_prob_per_window = 0.08;
  e.crash.reboot_windows = 1;
  return e;
}

iotsim::env::EnvironmentConfig solar() {
  iotsim::env::EnvironmentConfig e;
  e.power.model = iotsim::env::PowerModel::kHarvesting;
  e.power.battery_capacity_wh = 0.0005;  // 1.8 J: runs dry within the run
  e.power.harvest.peak_w = 2.0;
  e.power.harvest.period_s = 4.0;
  e.power.harvest.duty = 0.5;
  return e;
}

}  // namespace

std::vector<Scenario> paper_sweep_scenarios(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (AppId id : iotsim::apps::kLightweightApps) {
    for (Scheme s : {Scheme::kBaseline, Scheme::kBatching, Scheme::kCom, Scheme::kBcom}) {
      out.push_back(single_hub(seed, {id}, s));
    }
  }
  for (const auto& combo : fig11_combos()) {
    for (Scheme s : {Scheme::kBaseline, Scheme::kBeam, Scheme::kBcom}) {
      out.push_back(single_hub(seed, combo, s));
    }
  }
  out.push_back(single_hub(seed, {AppId::kA11SpeechToText}, Scheme::kBaseline));
  out.push_back(single_hub(seed, {AppId::kA11SpeechToText}, Scheme::kBatching));
  const std::vector<std::vector<AppId>> heavy = {
      {AppId::kA11SpeechToText, AppId::kA6Dropbox},
      {AppId::kA11SpeechToText, AppId::kA6Dropbox, AppId::kA1CoapServer},
  };
  for (const auto& ids : heavy) {
    for (Scheme s : {Scheme::kBaseline, Scheme::kBeam, Scheme::kBatching, Scheme::kBcom}) {
      out.push_back(single_hub(seed, ids, s));
    }
  }
  return out;
}

Scenario fleet_scenario(std::uint64_t seed, int hubs_per_block, bool contended, int windows) {
  auto b = Scenario::builder()
               .scheme(Scheme::kBcom)
               .windows(windows)
               .seed(seed)
               .world(active_world());
  for (int block = 0; block < kShardBlocks; ++block) {
    for (std::size_t p = 0; p < portfolios().size(); ++p) {
      b.add_hub(iotsim::hw::default_hub_spec(), portfolios()[p], hubs_per_block);
      if (contended && p == 0) b.hub_environment(bursty_crashy());
      if (contended && p == 1) b.hub_environment(solar());
    }
  }
  if (contended) {
    iotsim::net::ApConfig ap;
    ap.bytes_per_second = 5e6 / 8.0;
    ap.backoff = iotsim::net::BackoffPolicy::kFifo;
    ap.reservation_window = iotsim::sim::Duration::from_ms(10.0);
    b.network(ap);
  }
  return b.build();
}

std::vector<Scenario> cache_scenarios(std::uint64_t seed) {
  // Fleets first: a parallel sweep then starts all four together, so the
  // memory peak of filling the cache does not depend on thread timing.
  std::vector<Scenario> out;
  for (int per_block : {1, 4, 15, 16}) out.push_back(fleet_scenario(seed, per_block, false, 2));
  for (auto& sc : paper_sweep_scenarios(seed)) out.push_back(std::move(sc));
  return out;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? n : 1;
}

}  // namespace perfbench
