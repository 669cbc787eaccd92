// Ablation §III-A — The sleep break-even law. The paper derives
// 2.5 W × 1.6 ms = 4 mJ wake cost ⇒ sleeping pays only for gaps > 1.14 ms.
// We verify the analytic law against the simulated processor: sweep idle
// gaps and compare "allowed to sleep" vs "busy wait" energy.
#include "bench_util.h"

using namespace iotsim;

namespace {

double idle_gap_energy(double gap_ms, bool allow_sleep) {
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  const auto paper = energy::paper_reference_cpu();
  hw::Processor cpu{sim, acct, "cpu", hw::make_cpu_processor_spec(paper, 24000.0)};

  auto proc = [&]() -> sim::Task<void> {
    // work – gap – work, repeated; the gap is where sleep may happen.
    for (int i = 0; i < 10; ++i) {
      co_await cpu.execute(sim::Duration::from_ms(0.2), energy::Routine::kComputation);
      co_await cpu.wait(sim::Duration::from_ms(gap_ms),
                        allow_sleep ? hw::SleepPolicy::kLightSleep
                                    : hw::SleepPolicy::kBusyWait,
                        energy::Routine::kDataTransfer);
    }
  };
  sim.spawn(proc());
  sim.run();
  cpu.power().flush();
  return acct.component_joules(0);
}

}  // namespace

int main(int argc, char** argv) {
  // Accepts the shared flags for a uniform CLI; this bench drives a raw
  // Processor (no scenarios), so it needs no sweep session.
  (void)bench::parse_options(argc, argv);
  std::cout << "=== Ablation: sleep break-even (SIII-A) ===\n\n";
  const auto paper = energy::paper_reference_cpu();
  std::cout << "paper constants: active " << paper.active_w << " W, sleep "
            << paper.light_sleep_w << " W, transition " << paper.transition_w << " W x "
            << paper.light_wake_latency.to_ms() << " ms = "
            << paper.transition_w * paper.light_wake_latency.to_seconds() * 1e3 << " mJ\n";
  std::cout << "analytic break-even: " << paper.light_sleep_breakeven().to_ms()
            << " ms (paper: 1.14 ms)\n\n";

  trace::TablePrinter t{{"Idle gap (ms)", "Busy-wait (mJ)", "Sleep-allowed (mJ)", "Winner",
                         "Simulated policy"}};
  for (double gap : {0.2, 0.5, 0.8, 1.0, 1.14, 1.3, 1.6, 2.0, 4.0, 10.0, 50.0}) {
    const double busy = idle_gap_energy(gap, false) * 1e3;
    const double sleepy = idle_gap_energy(gap, true) * 1e3;
    using TP = trace::TablePrinter;
    // Note: the simulated governor refuses to sleep below break-even, so
    // "sleep-allowed" converges to busy-wait there.
    t.add_row({TP::num(gap, 4), TP::num(busy, 5), TP::num(sleepy, 5),
               sleepy < busy - 1e-9 ? "sleep" : "stay active",
               sleepy < busy - 1e-9 ? "slept" : "governor stayed active"});
  }
  std::cout << t.render() << '\n';
  std::cout << "Below ~1.14 ms the governor must not sleep (waking costs more than\n"
               "staying active); above it, sleeping wins and the advantage grows\n"
               "linearly with the gap.\n";
  return 0;
}
