// Figure 6 — Memory usage (heap + stack) and MIPS of A1–A10.
// Paper: avg 26.2 KB (25.8 heap + 0.4 stack), avg 47.45 MIPS; earthquake
// uses the least memory, JPEG the most; heartbeat is compute-heaviest.
#include "bench_util.h"

using namespace iotsim;

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv)};
  std::cout << "=== Fig. 6: per-app memory usage and MIPS ===\n\n";

  std::vector<core::Scenario> sweep;
  for (auto id : apps::kLightweightApps) {
    sweep.push_back(session.scenario({id}, core::Scheme::kBaseline));
  }
  session.prefetch(sweep);

  trace::TablePrinter t{{"App", "Heap (KB)", "Stack (B)", "MIPS", "Paper MIPS"}};
  double heap_sum = 0.0, stack_sum = 0.0, mips_sum = 0.0;
  trace::BarChart mips_chart{"MIPS"};
  for (auto id : apps::kLightweightApps) {
    const auto r = session.run({id}, core::Scheme::kBaseline);
    const auto& app = r.hubs.front().apps.at(id);
    const double heap_kb = static_cast<double>(app.heap_peak_bytes) / 1024.0;
    const double mips = static_cast<double>(app.instructions) / 1e6 /
                        static_cast<double>(session.windows());
    heap_sum += heap_kb;
    stack_sum += static_cast<double>(app.stack_peak_bytes);
    mips_sum += mips;
    using TP = trace::TablePrinter;
    t.add_row({std::string{apps::code_of(id)}, TP::num(heap_kb, 4),
               std::to_string(app.stack_peak_bytes), TP::num(mips, 4),
               TP::num(apps::spec_of(id).fig6_mips, 4)});
    mips_chart.add(std::string{apps::code_of(id)}, mips);
  }
  using TP = trace::TablePrinter;
  t.add_row({"Avg", TP::num(heap_sum / 10.0, 4), TP::num(stack_sum / 10.0, 4),
             TP::num(mips_sum / 10.0, 4), "47.45"});
  std::cout << t.render() << '\n';
  std::cout << "paper: avg heap 25.8 KB, avg stack 0.4 KB, avg 47.45 MIPS;\n"
            << "       min memory = earthquake (16.8 KB), max = JPEG (36.3 KB),\n"
            << "       max MIPS = heartbeat (108.8)\n\n";
  std::cout << mips_chart.render(60);
  return 0;
}
