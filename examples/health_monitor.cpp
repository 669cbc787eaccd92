// Wearable health monitor: step counter + heartbeat-irregularity detection
// running offloaded (COM), with an arrhythmic episode injected into the
// pulse signal. Shows the clinical outputs and the battery-life impact of
// offloading.
//
//   $ ./health_monitor [windows]
#include <cstdlib>
#include <iostream>

#include "core/scenario_runner.h"
#include "energy/battery.h"
#include "trace/table_printer.h"

using namespace iotsim;
using apps::AppId;

namespace {

core::Scenario make_scenario(core::Scheme scheme, int windows, double irregular_prob) {
  sensors::WorldConfig world;
  world.heart_bpm = 76.0;
  world.heart_irregular_prob = irregular_prob;
  world.walking_cadence_hz = 1.7;
  return core::Scenario::builder()
      .apps({AppId::kA2StepCounter, AppId::kA8Heartbeat})
      .scheme(scheme)
      .windows(windows)
      .world(world)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  const int windows = argc > 1 ? std::atoi(argv[1]) : 8;
  std::cout << "=== health monitor: A2 + A8, " << windows << " windows ===\n\n";

  // A healthy session and an arrhythmic one, both offloaded.
  for (const double prob : {0.0, 0.5}) {
    std::cout << (prob == 0.0 ? "--- healthy subject ---\n" : "--- arrhythmic episode ---\n");
    const auto r = core::run_scenario(make_scenario(core::Scheme::kCom, windows, prob));
    int alarms = 0;
    for (const auto& rec : r.hubs.front().apps.at(AppId::kA8Heartbeat).records) {
      std::cout << "  window " << rec.window << ": " << rec.summary << '\n';
      if (rec.event) ++alarms;
    }
    std::cout << "  -> " << alarms << " irregularity alarms in " << windows << " windows\n\n";
  }

  std::cout << "--- battery impact of the execution scheme (healthy session) ---\n";
  const auto base = core::run_scenario(make_scenario(core::Scheme::kBaseline, windows, 0.0));
  const auto batch = core::run_scenario(make_scenario(core::Scheme::kBatching, windows, 0.0));
  const auto com = core::run_scenario(make_scenario(core::Scheme::kCom, windows, 0.0));

  trace::TablePrinter t{{"Scheme", "Avg power (W)", "Savings", "Est. battery life*"}};
  using TP = trace::TablePrinter;
  const energy::Battery pack{5.0};  // a small 1350 mAh pack, 90% usable
  for (const auto& [name, r] :
       std::vector<std::pair<std::string, const core::ScenarioResult*>>{
           {"Baseline", &base}, {"Batching", &batch}, {"COM", &com}}) {
    t.add_row({name, TP::num(r->average_watts(), 4),
               TP::pct(r->energy.savings_vs(base.energy)),
               TP::num(pack.lifetime(r->energy).to_seconds() / 3600.0, 3) + " h"});
  }
  std::cout << t.render();
  std::cout << "* 5 Wh pack (90% usable), continuous monitoring at this draw.\n";
  return 0;
}
