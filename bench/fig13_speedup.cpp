// Figure 13 — Performance speedup of COM over Baseline (busy-time on the
// app's critical path). Paper: average 1.88×; A3 (0.9×) and A8 (0.8×) are
// the only slowdowns.
#include "bench_util.h"

using namespace iotsim;

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv)};
  std::cout << "=== Fig. 13: COM speedup vs baseline, per app ===\n\n";

  std::vector<core::Scenario> sweep;
  for (auto id : apps::kLightweightApps) {
    sweep.push_back(session.scenario({id}, core::Scheme::kBaseline));
    sweep.push_back(session.scenario({id}, core::Scheme::kCom));
  }
  session.prefetch(sweep);

  trace::TablePrinter t{{"App", "Baseline busy (ms)", "COM busy (ms)", "Speedup"}};
  trace::BarChart chart{"x"};
  double sum = 0.0;
  for (auto id : apps::kLightweightApps) {
    const auto base = session.run({id}, core::Scheme::kBaseline);
    const auto com = session.run({id}, core::Scheme::kCom);
    const double base_ms = base.hubs.front().apps.at(id).busy_per_window.total().to_ms();
    const double com_ms = com.hubs.front().apps.at(id).busy_per_window.total().to_ms();
    const double speedup = base_ms / com_ms;
    sum += speedup;
    using TP = trace::TablePrinter;
    t.add_row({std::string{apps::code_of(id)}, TP::num(base_ms, 4), TP::num(com_ms, 4),
               TP::num(speedup, 3)});
    chart.add(std::string{apps::code_of(id)}, speedup);
  }
  std::cout << t.render() << '\n';
  std::cout << "average speedup (paper: 1.88x): " << sum / 10.0 << "x\n";
  std::cout << "slowdowns expected only for A3 (paper 0.9x: tiny data, JSON string\n"
               "work is slow on the MCU) and A8 (paper 0.8x: float-heavy Pan-Tompkins\n"
               "on an FPU-less core).\n\n";
  std::cout << chart.render(60);
  return 0;
}
