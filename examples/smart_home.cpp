// Smart-home hub: four concurrent apps (step counter, M2X cloud feed,
// Blynk phone dashboard, earthquake watchdog) sharing sensors — the
// paper's multi-app scenario. Compares Baseline, BEAM and BCOM and shows
// what each app actually computed.
//
//   $ ./smart_home [windows]
#include <cstdlib>
#include <iostream>

#include "core/scenario_runner.h"
#include "trace/table_printer.h"

using namespace iotsim;
using apps::AppId;

namespace {

core::Scenario make_scenario(core::Scheme scheme, int windows) {
  // A quiet house, then a tremor in the third window.
  sensors::WorldConfig world;
  world.quakes = {{2.3, 0.4, 2.2}};
  world.walking_cadence_hz = 1.8;
  return core::Scenario::builder()
      .apps({AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA5Blynk, AppId::kA7Earthquake})
      .scheme(scheme)
      .windows(windows)
      .world(world)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  const int windows = argc > 1 ? std::atoi(argv[1]) : 4;
  std::cout << "=== smart home: A2+A4+A5+A7 sharing sensors, " << windows << " windows ===\n\n";

  const auto base = core::run_scenario(make_scenario(core::Scheme::kBaseline, windows));
  const auto beam = core::run_scenario(make_scenario(core::Scheme::kBeam, windows));
  const auto bcom = core::run_scenario(make_scenario(core::Scheme::kBcom, windows));

  trace::TablePrinter t{{"Scheme", "Energy (J)", "Savings", "Interrupts", "QoS"}};
  using TP = trace::TablePrinter;
  for (const auto& [name, r] :
       std::vector<std::pair<std::string, const core::ScenarioResult*>>{
           {"Baseline", &base}, {"BEAM", &beam}, {"BCOM", &bcom}}) {
    t.add_row({name, TP::num(r->total_joules(), 4),
               TP::pct(r->energy.savings_vs(base.energy)), std::to_string(r->interrupts_raised),
               r->qos_met ? "met" : "MISSED"});
  }
  std::cout << t.render() << '\n';

  std::cout << "Offload plan under BCOM:\n";
  for (const auto& [id, d] : bcom.hubs.front().plan.decisions) {
    std::cout << "  " << apps::code_of(id) << ": " << (d.offload ? "offloaded" : "stays on CPU")
              << " (" << d.reason << ")\n";
  }
  std::cout << "  MCU RAM used: " << bcom.hubs.front().plan.mcu_ram_used / 1024 << " KB of "
            << hw::default_hub_spec().mcu_available_ram() / 1024 << " KB\n\n";

  std::cout << "What the apps saw (BCOM run):\n";
  for (auto id : {AppId::kA2StepCounter, AppId::kA7Earthquake, AppId::kA4M2x, AppId::kA5Blynk}) {
    std::cout << "  " << apps::code_of(id) << " (" << apps::spec_of(id).name << "):\n";
    for (const auto& rec : bcom.hubs.front().apps.at(id).records) {
      std::cout << "    window " << rec.window << ": " << rec.summary
                << (rec.event ? "  << EVENT" : "") << '\n';
    }
  }
  std::cout << "\nNote how the earthquake watchdog (A7) fires during the injected\n"
               "tremor and stays quiet while the resident walks (gait is narrowband,\n"
               "the STA/LTA trigger only reacts to broadband transients).\n\n"
               "If the Baseline row shows QoS MISSED, that is the point of the\n"
               "paper: four per-sample apps raise >5000 interrupts per second and\n"
               "saturate the CPU's handling path, so windows drift past their\n"
               "deadlines. BEAM (shared sensors) and BCOM (offloaded) both keep up.\n";
  return 0;
}
