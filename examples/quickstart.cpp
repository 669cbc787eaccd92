// Quickstart: run the step-counter app under all three single-app schemes
// and print the paper-style energy comparison (Fig. 9 in miniature).
//
//   $ ./quickstart [windows]
#include <cstdlib>
#include <iostream>

#include "core/scenario_runner.h"
#include "trace/ascii_chart.h"
#include "trace/table_printer.h"

using namespace iotsim;

int main(int argc, char** argv) {
  const int windows = argc > 1 ? std::atoi(argv[1]) : 5;

  std::cout << "=== iotsim quickstart: step counter (A2), " << windows << " windows ===\n\n";

  core::ScenarioResult results[3];
  const core::Scheme schemes[] = {core::Scheme::kBaseline, core::Scheme::kBatching,
                                  core::Scheme::kCom};
  for (int i = 0; i < 3; ++i) {
    const auto scenario = core::Scenario::builder()
                              .apps({apps::AppId::kA2StepCounter})
                              .scheme(schemes[i])
                              .windows(windows)
                              .build();
    results[i] = core::run_scenario(scenario);
  }

  trace::TablePrinter table{{"Scheme", "Energy (mJ)", "Norm.", "Savings", "Interrupts",
                             "CPU wakeups", "QoS"}};
  for (int i = 0; i < 3; ++i) {
    const auto& r = results[i];
    table.add_row({std::string{to_string(schemes[i])},
                   trace::TablePrinter::num(r.total_joules() * 1e3, 5),
                   trace::TablePrinter::num(r.energy.normalized_to(results[0].energy), 3),
                   trace::TablePrinter::pct(r.energy.savings_vs(results[0].energy)),
                   std::to_string(r.interrupts_raised), std::to_string(r.cpu_wakeups),
                   r.qos_met ? "met" : "MISSED"});
  }
  std::cout << table.render() << '\n';

  std::cout << "Energy breakdown by routine (normalised to Baseline total):\n";
  trace::StackedBarChart chart{{"DataCollection", "Interrupt", "DataTransfer", "Computing"}};
  const double base = results[0].total_joules();
  for (int i = 0; i < 3; ++i) {
    const auto& e = results[i].energy;
    chart.add(std::string{to_string(schemes[i])},
              {e.paper_joules(energy::Routine::kDataCollection) / base * 100.0,
               e.paper_joules(energy::Routine::kInterrupt) / base * 100.0,
               e.paper_joules(energy::Routine::kDataTransfer) / base * 100.0,
               (e.paper_joules(energy::Routine::kComputation) +
                e.joules(energy::Routine::kIdle)) /
                   base * 100.0});
  }
  std::cout << chart.render(70) << '\n';

  std::cout << "App output (Baseline, per window):\n";
  for (const auto& rec : results[0].hubs.front().apps.at(apps::AppId::kA2StepCounter).records) {
    std::cout << "  window " << rec.window << ": " << rec.summary << "  (done at "
              << rec.completed.to_seconds() << " s)\n";
  }
  return 0;
}
