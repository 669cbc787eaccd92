// Figure 8 — Step-counter busy-time breakdown per window: Baseline vs COM.
// Paper: Baseline 100 (collect) + 48 (interrupt) + 192 (transfer) + 2.21
// (compute) ms; COM: 100 (collect) + 21.7 (compute on MCU) ms.
#include "bench_util.h"

using namespace iotsim;

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv)};
  std::cout << "=== Fig. 8: step-counter timing breakdown (busy ms per window) ===\n\n";

  session.prefetch({
      session.scenario({apps::AppId::kA2StepCounter}, core::Scheme::kBaseline),
      session.scenario({apps::AppId::kA2StepCounter}, core::Scheme::kCom),
  });
  const auto base = session.run({apps::AppId::kA2StepCounter}, core::Scheme::kBaseline);
  const auto com = session.run({apps::AppId::kA2StepCounter}, core::Scheme::kCom);

  trace::TablePrinter t{{"Scheme", "DataColl (ms)", "Interrupt (ms)", "Transfer (ms)",
                         "Compute (ms)", "Total (ms)"}};
  auto add = [&](const std::string& name, const core::ScenarioResult& r) {
    const auto& b = r.hubs.front().apps.at(apps::AppId::kA2StepCounter).busy_per_window;
    using TP = trace::TablePrinter;
    t.add_row({name, TP::num(b.data_collection.to_ms(), 4), TP::num(b.interrupt.to_ms(), 4),
               TP::num(b.data_transfer.to_ms(), 4), TP::num(b.computation.to_ms(), 4),
               TP::num(b.total().to_ms(), 4)});
  };
  add("Baseline", base);
  add("COM", com);
  t.add_row({"Paper Baseline", "100", "48", "192", "2.21", "342.2"});
  t.add_row({"Paper COM", "100", "-", "-", "21.7", "121.7"});
  std::cout << t.render() << '\n';

  const auto busy_s = [](const core::ScenarioResult& r) {
    return r.hubs.front().apps.at(apps::AppId::kA2StepCounter).busy_per_window.total().to_seconds();
  };
  const double speedup = busy_s(base) / busy_s(com);
  std::cout << "COM is faster because the saved interrupt+transfer time exceeds the\n"
            << "slower MCU compute (21.7-2.21 < 48+192, SIII-B2). speedup=" << speedup << "x\n";
  return 0;
}
