// Table II — Salient features of the eleven workloads. Sensor-data volume
// and interrupt counts are derived from Table I QoS rates over the
// 1-second window and must reproduce the paper's column values.
#include "bench_util.h"

using namespace iotsim;

namespace {
// Paper's Table II columns for cross-checking.
struct PaperRow {
  const char* data_kb;
  int interrupts;
};
constexpr PaperRow kPaper[11] = {
    {"11.72", 2000}, {"11.72", 1000}, {"0.16", 20},  {"20.47", 2220},
    {"36.91", 1221}, {"11.72", 2000}, {"11.72", 1000}, {"3.91", 1000},
    {"23.81", 1},    {"0.5", 1},      {"5.86", 1000},
};
}  // namespace

int main(int argc, char** argv) {
  // No sweep here; parsing the shared flags still gives this target the
  // standard flag surface (--help, exit 2 on a bad flag).
  (void)bench::parse_options(argc, argv);
  std::cout << "=== Table II: workload features ===\n\n";
  trace::TablePrinter t{{"No.", "Benchmark", "Category", "Sensors", "Data (KB)", "Paper KB",
                         "#Interrupts", "Paper", "User-level task"}};
  for (std::size_t i = 0; i < apps::kAllApps.size(); ++i) {
    const auto& spec = apps::spec_of(apps::kAllApps[i]);
    std::string sensor_list;
    for (auto s : spec.sensor_ids) {
      if (!sensor_list.empty()) sensor_list += ",";
      sensor_list += sensors::spec_of(s).id;
    }
    using TP = trace::TablePrinter;
    t.add_row({spec.code, spec.name, spec.category, sensor_list,
               TP::num(static_cast<double>(spec.sensor_bytes_per_window()) / 1024.0, 4),
               kPaper[i].data_kb, std::to_string(spec.interrupts_per_window()),
               std::to_string(kPaper[i].interrupts), spec.user_task});
  }
  std::cout << t.render() << '\n';
  std::cout << "A1-A10 are light-weight (offloadable); A11 is heavy-weight\n"
               "(4683 MIPS, 1.43 GB model) and needs the main CPU.\n";
  return 0;
}
