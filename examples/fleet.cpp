// Fleet demo: a heterogeneous three-hub deployment — a wearable hub, a
// home-sensing hub, and a duplicated pair of telemetry relays — sharing one
// simulation clock and one energy ledger, with per-hub sections in the
// result alongside the fleet totals. A second run puts the same fleet
// behind a shared 5 Mbit/s access point to show the contention model:
// airtime waits, retries/drops and the fleet congestion summary.
//
//   $ ./fleet [windows]
#include <cstdlib>
#include <iostream>

#include "core/scenario_runner.h"
#include "net/config.h"
#include "trace/table_printer.h"

using namespace iotsim;

int main(int argc, char** argv) {
  const int windows = argc > 1 ? std::atoi(argv[1]) : 3;

  std::cout << "=== iotsim fleet: 4 hubs, one clock, " << windows << " windows ===\n\n";

  // The wearable hub gets a noisier world than the rest of the fleet, and
  // sensors whose availability checks fail 2% of the time.
  sensors::WorldConfig noisy;
  noisy.heart_bpm = 88.0;
  noisy.heart_irregular_prob = 0.2;
  env::EnvironmentConfig flaky;
  flaky.faults.fault_prob = 0.02;

  core::HubInstance wearable;
  wearable.app_ids = {apps::AppId::kA2StepCounter, apps::AppId::kA8Heartbeat};
  wearable.world = noisy;
  wearable.environment = flaky;

  core::HubInstance home;
  home.app_ids = {apps::AppId::kA5Blynk, apps::AppId::kA7Earthquake};

  core::HubInstance relay;
  relay.app_ids = {apps::AppId::kA4M2x};
  relay.count = 2;  // expands to two identical hubs with distinct RNG streams

  const auto scenario = core::Scenario::builder()
                            .scheme(core::Scheme::kBcom)
                            .windows(windows)
                            .add_hub(wearable)
                            .add_hub(home)
                            .add_hub(relay)
                            .build();
  const auto result = core::run_scenario(scenario);
  if (!result.ok()) {
    for (const auto& e : result.errors) {
      std::cerr << "invalid scenario: " << e.field << ": " << e.message << '\n';
    }
    return 1;
  }

  trace::TablePrinter table{{"Hub", "Apps", "Energy (mJ)", "Interrupts", "CPU wakeups",
                             "Sensor errs", "QoS"}};
  for (const auto& hub : result.hubs) {
    std::string app_list;
    for (const auto& [id, res] : hub.apps) {
      if (!app_list.empty()) app_list += "+";
      app_list += std::string{apps::code_of(id)};
      (void)res;
    }
    table.add_row({hub.name, app_list, trace::TablePrinter::num(hub.total_joules() * 1e3, 5),
                   std::to_string(hub.interrupts_raised), std::to_string(hub.cpu_wakeups),
                   std::to_string(hub.sensor_read_errors), hub.qos_met ? "met" : "MISSED"});
  }
  std::cout << table.render() << '\n';

  std::cout << "Fleet total: " << trace::TablePrinter::num(result.total_joules() * 1e3, 5)
            << " mJ over " << trace::TablePrinter::num(result.span.to_seconds(), 4)
            << " s  (avg " << trace::TablePrinter::num(result.average_watts() * 1e3, 4)
            << " mW), QoS " << (result.qos_met ? "met on every hub" : "MISSED") << "\n\n";

  std::cout << "Per-hub QoS detail:\n" << result.qos_summary();

  // Same fleet, but every NIC now shares one finite 5 Mbit/s uplink instead
  // of the default infinite-capacity medium. Overlapping bursts serialize,
  // radios idle-listen at tail power while they wait, and the result grows a
  // congestion section.
  core::Scenario contended = scenario;
  net::ApConfig ap;
  ap.bytes_per_second = 6.25e5;  // 5 Mbit/s
  contended.network = ap;
  const auto shared = core::run_scenario(contended);
  if (!shared.ok()) return 1;

  std::cout << "\n=== Same fleet behind a shared 5 Mbit/s access point ===\n\n";
  trace::TablePrinter nt{{"Hub", "Airtime wait (ms)", "Grants", "Retries", "Drops"}};
  for (const auto& hub : shared.hubs) {
    nt.add_row({hub.name, trace::TablePrinter::num(hub.airtime_wait.to_ms(), 4),
                std::to_string(hub.airtime_grants), std::to_string(hub.net_retries),
                std::to_string(hub.net_drops)});
  }
  std::cout << nt.render() << '\n';

  const auto& c = shared.energy.congestion();
  std::cout << "Uplink utilization " << trace::TablePrinter::num(c.utilization * 100.0, 3)
            << " %, total airtime wait " << trace::TablePrinter::num(c.airtime_wait.to_ms(), 4)
            << " ms\nFleet network energy: ideal "
            << trace::TablePrinter::num(result.energy.joules(energy::Routine::kNetwork) * 1e3, 5)
            << " mJ -> shared AP "
            << trace::TablePrinter::num(shared.energy.joules(energy::Routine::kNetwork) * 1e3, 5)
            << " mJ\n";
  return 0;
}
