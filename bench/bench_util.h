// Shared helpers for the figure-regeneration benches: common world setup,
// paper-style breakdown tables, and the sweep session every bench main runs
// its scenarios through.
//
// Every bench accepts the same flags (parse_options, consistent --help):
//   --jobs=N       worker threads for the scenario sweep (default: all cores)
//   --windows=K    QoS windows per scenario (default: bench-specific)
//   --hubs=N       fleet size for fleet benches (others ignore it)
//   --cache-dir=P  persistent result cache directory (cache::ResultCache);
//                  a warm re-run serves every scenario from disk and
//                  executes nothing
// Numbers are bit-identical at any --jobs value: scenarios are seeded by
// content and collected in order (see core/sweep.h). Benches print no wall
// time; perfbench (perfbench/README.md) is the repo's one perf recorder.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/result_cache.h"
#include "core/scenario_runner.h"
#include "core/sweep.h"
#include "trace/ascii_chart.h"
#include "trace/csv_writer.h"
#include "trace/table_printer.h"

namespace iotsim::bench {

inline constexpr int kDefaultWindows = 5;

/// A world with activity on every channel, so kernels have real work: two
/// seismic bursts, scheduled voice commands, a slightly irregular heart.
inline sensors::WorldConfig active_world() {
  sensors::WorldConfig world;
  world.quakes = {{1.35, 0.25, 1.2}, {3.6, 0.3, 2.0}};
  world.utterances = {{0.2, 0}, {1.3, 2}, {2.4, 4}, {3.5, 1}, {4.3, 5}};
  world.heart_bpm = 72.0;
  world.heart_irregular_prob = 0.0;
  return world;
}

/// Command-line options shared by every bench main.
struct Options {
  int jobs = 0;  // <= 0 ⇒ all hardware threads
  int windows = kDefaultWindows;
  int hubs = 0;  // <= 0 ⇒ bench default; only fleet benches consume it
  std::string cache_dir;  // non-empty ⇒ persistent result cache directory

  /// Bench-default helper: everything default except the window count.
  [[nodiscard]] static Options with_windows(int k) {
    Options o;
    o.windows = k;
    return o;
  }
};

/// Parses --jobs=N / --windows=K / --hubs=N / --cache-dir[=| ]PATH (exits 2
/// with usage on anything else, including a flag value that is not a whole
/// integer). `defaults` carries the bench's own window count where it
/// differs.
inline Options parse_options(int argc, char** argv, Options defaults = {}) {
  Options o = defaults;
  auto usage = [&](int code) {
    std::cerr << "usage: " << (argc > 0 ? argv[0] : "bench")
              << " [--jobs=N] [--windows=K] [--hubs=N] [--cache-dir=PATH]\n"
              << "  --jobs=N        sweep worker threads (default: all cores)\n"
              << "  --windows=K     QoS windows per scenario\n"
              << "  --hubs=N        fleet size (fleet benches only)\n"
              << "  --cache-dir=P   persistent result cache directory\n";
    std::exit(code);
  };
  auto int_flag = [&](const std::string& arg,
                      const std::string& prefix) -> std::optional<int> {
    if (arg.rfind(prefix, 0) != 0) return std::nullopt;
    const char* first = arg.data() + prefix.size();
    const char* last = arg.data() + arg.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || end != last) {
      std::cerr << "not an integer: " << arg << '\n';
      usage(2);
    }
    return value;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = int_flag(arg, "--jobs=")) {
      o.jobs = *v;
    } else if (auto w = int_flag(arg, "--windows=")) {
      o.windows = *w;
    } else if (auto h = int_flag(arg, "--hubs=")) {
      o.hubs = *h;
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      o.cache_dir = arg.substr(12);
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      o.cache_dir = argv[++i];
    } else {
      usage(arg == "--help" || arg == "-h" ? 0 : 2);
    }
  }
  if (o.windows <= 0) {
    std::cerr << "--windows must be positive\n";
    std::exit(2);
  }
  return o;
}

/// One bench run's sweep context: builds scenarios against the shared world
/// and executes them through a memoized parallel SweepRunner. Construct all
/// scenarios first and prefetch() them so --jobs can fan the batch out;
/// subsequent run() calls are then cache hits.
class Session {
 public:
  explicit Session(Options opts)
      : opts_{std::move(opts)},
        sweep_{core::SweepOptions{
            .jobs = opts_.jobs, .memoize = true, .cache_dir = opts_.cache_dir}} {}

  ~Session() {
    // Diagnostics go to stderr so table/CSV output on stdout stays
    // byte-identical across --jobs values (and across cold/warm cache runs).
    const auto& s = sweep_.stats();
    const cache::ResultCache* disk = sweep_.disk_cache();
    std::cerr << "[sweep] jobs=" << sweep_.jobs() << " scenarios=" << s.scheduled
              << " executed=" << s.executed << " cache-hits=" << s.cache_hits
              << " disk-hits=" << s.disk_hits << " disk-stores=" << s.disk_stores
              << " disk-corrupt=" << (disk ? disk->stats().corrupt_entries : 0) << '\n';
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] int windows() const { return opts_.windows; }
  [[nodiscard]] const Options& options() const { return opts_; }

  /// Fleet size after the --hubs override (`fallback` = the bench default).
  [[nodiscard]] int hubs_or(int fallback) const {
    return opts_.hubs > 0 ? opts_.hubs : fallback;
  }

  /// The bench-standard scenario: given apps/scheme against active_world().
  [[nodiscard]] core::Scenario scenario(std::vector<apps::AppId> ids, core::Scheme scheme,
                                        bool trace = false) const {
    return core::Scenario::builder()
        .apps(std::move(ids))
        .scheme(scheme)
        .windows(opts_.windows)
        .world(active_world())
        .record_power_trace(trace)
        .build();
  }

  /// Warms the memo with a batch of scenarios, in parallel.
  void prefetch(const std::vector<core::Scenario>& scenarios) { (void)sweep_.run(scenarios); }

  [[nodiscard]] core::ScenarioResult run(const core::Scenario& sc) { return sweep_.run_one(sc); }
  [[nodiscard]] core::ScenarioResult run(std::vector<apps::AppId> ids, core::Scheme scheme,
                                         bool trace = false) {
    return sweep_.run_one(scenario(std::move(ids), scheme, trace));
  }

  [[nodiscard]] std::vector<core::ScenarioResult> run_all(
      const std::vector<core::Scenario>& scenarios) {
    return sweep_.run(scenarios);
  }

  [[nodiscard]] core::SweepRunner& sweep() { return sweep_; }

 private:
  Options opts_;
  core::SweepRunner sweep_;
};

/// Paper-style four-routine percentages of a scheme run, normalised to a
/// baseline run's total (the bars of Figs. 7/9/10/11/12).
struct BreakdownRow {
  double dc, irq, dt, comp, idle;
  [[nodiscard]] double total() const { return dc + irq + dt + comp + idle; }
};

inline BreakdownRow breakdown_vs(const core::ScenarioResult& r,
                                 const core::ScenarioResult& baseline) {
  const double base = baseline.total_joules();
  const auto& e = r.energy;
  return BreakdownRow{
      e.paper_joules(energy::Routine::kDataCollection) / base * 100.0,
      e.paper_joules(energy::Routine::kInterrupt) / base * 100.0,
      e.paper_joules(energy::Routine::kDataTransfer) / base * 100.0,
      e.paper_joules(energy::Routine::kComputation) / base * 100.0,
      e.joules(energy::Routine::kIdle) / base * 100.0,
  };
}

inline void add_breakdown_row(trace::TablePrinter& t, const std::string& label,
                              const BreakdownRow& row) {
  using TP = trace::TablePrinter;
  t.add_row({label, TP::num(row.dc, 3), TP::num(row.irq, 3), TP::num(row.dt, 3),
             TP::num(row.comp, 3), TP::num(row.idle, 3), TP::num(row.total(), 4)});
}

inline trace::TablePrinter breakdown_table(const std::string& first_col = "Scheme") {
  return trace::TablePrinter{
      {first_col, "DataColl%", "Interrupt%", "DataTransfer%", "Computing%", "Idle%", "Total%"}};
}

/// The paper's 14 sensor-sharing combinations (Fig. 11 x-axis).
inline const std::vector<std::vector<apps::AppId>>& fig11_combos() {
  using apps::AppId;
  static const std::vector<std::vector<apps::AppId>> combos = {
      {AppId::kA2StepCounter, AppId::kA5Blynk},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA4M2x, AppId::kA5Blynk},
      {AppId::kA3ArduinoJson, AppId::kA5Blynk},
      {AppId::kA2StepCounter, AppId::kA7Earthquake},
      {AppId::kA2StepCounter, AppId::kA4M2x},
      {AppId::kA4M2x, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
      {AppId::kA2StepCounter, AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA5Blynk},
      {AppId::kA4M2x, AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x, AppId::kA5Blynk},
      {AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA7Earthquake},
      {AppId::kA2StepCounter, AppId::kA4M2x, AppId::kA5Blynk, AppId::kA7Earthquake},
  };
  return combos;
}

inline std::string combo_name(const std::vector<apps::AppId>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += "+";
    out += std::string{apps::code_of(ids[i])};
  }
  return out;
}

}  // namespace iotsim::bench
