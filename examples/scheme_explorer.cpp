// Interactive-style CLI: run any workload mix under any scheme and print
// the full report — the library's "kitchen sink" entry point.
//
//   $ ./scheme_explorer <scheme> <app>[,<app>...] [windows] [--json]
//   $ ./scheme_explorer bcom A11,A6,A1 5
//   schemes: baseline | batching | com | beam | bcom
//   apps:    A1..A11
//   --json:  print the machine-readable result document instead of tables
#include <algorithm>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "core/result_json.h"
#include "core/scenario_runner.h"
#include "trace/table_printer.h"

using namespace iotsim;

namespace {

std::optional<core::Scheme> parse_scheme(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) { return std::tolower(c); });
  if (s == "baseline") return core::Scheme::kBaseline;
  if (s == "batching") return core::Scheme::kBatching;
  if (s == "com") return core::Scheme::kCom;
  if (s == "beam") return core::Scheme::kBeam;
  if (s == "bcom") return core::Scheme::kBcom;
  return std::nullopt;
}

std::optional<apps::AppId> parse_app(const std::string& code) {
  for (auto id : apps::kAllApps) {
    if (code == apps::code_of(id)) return id;
  }
  return std::nullopt;
}

int usage() {
  std::cerr << "usage: scheme_explorer <baseline|batching|com|beam|bcom> "
               "<A1..A11>[,<A1..A11>...] [windows]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto scheme = parse_scheme(argv[1]);
  if (!scheme) return usage();

  std::vector<apps::AppId> ids;
  std::stringstream apps_arg{argv[2]};
  std::string code;
  while (std::getline(apps_arg, code, ',')) {
    const auto id = parse_app(code);
    if (!id) {
      std::cerr << "unknown app '" << code << "'\n";
      return usage();
    }
    ids.push_back(*id);
  }
  bool json_mode = false;
  int windows = 5;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json_mode = true;
    } else {
      windows = std::atoi(argv[i]);
    }
  }
  // Give every channel something to sense.
  sensors::WorldConfig world;
  world.quakes = {{1.4, 0.3, 1.8}};
  world.utterances = {{0.3, 0}, {1.5, 3}, {2.6, 5}};

  const auto sc = core::Scenario::builder()
                      .apps(ids)
                      .scheme(*scheme)
                      .windows(windows)
                      .world(world)
                      .build();
  // User-supplied app lists and window counts can be bogus; report every
  // problem the validator finds instead of running a half-formed scenario.
  if (const auto errors = sc.validate(); !errors.empty()) {
    for (const auto& e : errors) std::cerr << "invalid scenario: " << to_string(e) << '\n';
    return usage();
  }

  const auto r = core::run_scenario(sc);

  if (json_mode) {
    std::cout << core::to_json_text(r) << '\n';
    return 0;
  }

  std::cout << "scheme " << to_string(sc.scheme) << ", " << sc.windows << " windows, span "
            << r.span.to_seconds() << " s\n\n";

  trace::TablePrinter energy_t{{"Routine", "Joules", "Share"}};
  using TP = trace::TablePrinter;
  for (auto rt : energy::kPaperRoutines) {
    energy_t.add_row({std::string{to_string(rt)}, TP::num(r.energy.paper_joules(rt), 4),
                      TP::pct(r.energy.paper_fraction(rt))});
  }
  energy_t.add_row({"Idle", TP::num(r.energy.joules(energy::Routine::kIdle), 4),
                    TP::pct(r.energy.joules(energy::Routine::kIdle) / r.total_joules())});
  energy_t.add_row({"TOTAL", TP::num(r.total_joules(), 5), "100%"});
  std::cout << energy_t.render() << '\n';

  trace::TablePrinter app_t{{"App", "Mode", "Windows", "Mean latency (ms)", "Worst jitter (ms)",
                             "Heap peak (KB)", "Last output"}};
  for (const auto& [id, res] : r.hubs.front().apps) {
    app_t.add_row({std::string{apps::code_of(id)}, std::string{to_string(res.mode)},
                   std::to_string(res.qos.windows), TP::num(res.qos.mean_latency().to_ms(), 4),
                   TP::num(res.qos.worst_sample_jitter.to_ms(), 3),
                   TP::num(static_cast<double>(res.heap_peak_bytes) / 1024.0, 4),
                   res.records.empty() ? "-" : res.records.back().summary});
  }
  std::cout << app_t.render() << '\n';

  std::cout << "interrupts " << r.interrupts_raised << ", CPU wakeups " << r.cpu_wakeups
            << ", QoS " << (r.qos_met ? "met" : "MISSED") << '\n';
  for (const auto& [id, note] : r.hubs.front().notes) {
    std::cout << "note: " << apps::code_of(id) << ": " << note << '\n';
  }
  if (sc.scheme == core::Scheme::kCom || sc.scheme == core::Scheme::kBcom) {
    std::cout << "offload plan:\n";
    for (const auto& [id, d] : r.hubs.front().plan.decisions) {
      std::cout << "  " << apps::code_of(id) << ": " << (d.offload ? "offload" : "keep") << " — "
                << d.reason << '\n';
    }
  }
  return 0;
}
