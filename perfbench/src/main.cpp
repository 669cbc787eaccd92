// perfbench — the repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir DIR] [--inject corrupt-entry|invalid-scenario]
//
// One process runs one workload through the library's public API: a set-up
// phase (scenario build, validate and scenario_key; for cache_replay also
// filling a private cache directory), repeated several times and timed on
// its own, then a timed phase that repeats the workload's pass for
// --seconds. Every output is checked. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The traced
// run records spans around each call into a layer (perfbench/src/spans.h)
// and writes them to the work directory at exit. perfbench/README.md lists
// the workloads, the metrics and which layer should move which metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "cache/result_cache.h"
#include "cache/result_codec.h"
#include "core/result_json.h"
#include "core/scenario_runner.h"
#include "core/sweep.h"
#include "energy/routine.h"
#include "kernels.h"
#include "sim/random.h"
#include "spans.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace iotsim;
using Clock = std::chrono::steady_clock;

namespace perfbench {
namespace {

// --- Small helpers ----------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The q-quantile (nearest rank) of `v`, or 0 when fewer than ten samples
/// lie beyond it — a tail percentile is only reported when it is backed.
double backed_percentile(std::vector<double> v, double q) {
  const double beyond = static_cast<double>(v.size()) * (1.0 - q);
  if (v.empty() || beyond < 10.0 - 1e-9) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// Every hub's routine-sum must equal its component-sum: both integrate the
/// same ledger slice (the paper's Σ routine == ∫P dt accounting identity).
bool hub_invariants_hold(const core::ScenarioResult& r) {
  for (const auto& hub : r.hubs) {
    double routine_sum = 0.0;
    for (auto rt : energy::kAllRoutines) routine_sum += hub.energy.joules(rt);
    double component_sum = 0.0;
    for (const auto& [name, row] : hub.energy.by_component()) {
      for (double j : row) component_sum += j;
    }
    const double scale = std::max(std::abs(routine_sum), 1e-12);
    if (!(std::abs(routine_sum - component_sum) / scale < 1e-9)) return false;
  }
  return !r.hubs.empty();
}

core::SweepOptions sweep_options(int jobs, std::string cache_dir = {}) {
  core::SweepOptions o;
  o.jobs = jobs;
  o.memoize = true;
  o.cache_dir = std::move(cache_dir);
  return o;
}

double hub_seconds(const core::ScenarioResult& r) {
  return r.span.to_seconds() * static_cast<double>(r.hubs.size());
}

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".perfbench-work";
  std::string inject;
};

[[noreturn]] void usage(int code) {
  std::cerr << "usage: perfbench --workload paper_sweep|fleet_ideal|fleet_contended|cache_replay\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]\n"
               "                 [--inject corrupt-entry|invalid-scenario]\n";
  std::exit(code);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage(0);
    if (i + 1 >= argc) usage(2);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage(2);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage(2);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage(2);
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--inject") {
      if (value != "corrupt-entry" && value != "invalid-scenario") usage(2);
      a.inject = value;
    } else {
      usage(2);
    }
  }
  const bool known = a.workload == "paper_sweep" || a.workload == "fleet_ideal" ||
                     a.workload == "fleet_contended" || a.workload == "cache_replay";
  if (!known) usage(2);
  if (a.inject == "corrupt-entry" && a.workload != "cache_replay") usage(2);
  if (a.inject == "invalid-scenario" && a.workload != "paper_sweep") usage(2);
  return a;
}

// --- Metrics ----------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer", in order);
// perfbench/selftest.py checks that they do.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},           {"run_s", "s"},          {"hub_seconds_per_s", "hub-s/s"},
    {"events_per_s", "1/s"},    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"trace.overhead_frac", "ratio"},
    {"host.nproc", "count"},
    {"sweep.jobs", "count"},
    {"scenario.build_ms", "ms"},
    {"scenario.validate_ms", "ms"},
    {"sweep.key_us", "us"},
    {"sweep.key_bytes", "bytes"},
    {"sweep.memo_hits", "count"},
    {"sweep.disk_hits", "count"},
    {"sweep.scenario_ms_p50", "ms"},
    {"sweep.scenario_ms_max", "ms"},
    {"sweep.parallel_efficiency", "ratio"},
    {"runner.shards", "count"},
    {"runner.single_s", "s"},
    {"runner.sharded_s", "s"},
    {"runner.shard_speedup", "ratio"},
    {"runner.shard_efficiency", "ratio"},
    {"result_json.ms", "ms"},
    {"result_json.bytes", "bytes"},
    {"cache.query_p50_ms", "ms"},
    {"cache.query_p99_ms", "ms"},
    {"cache.queries", "count"},
    {"cache.lookup_us_p50", "us"},
    {"cache.lookup_us_p99", "us"},
    {"cache.decode_us_p50", "us"},
    {"cache.entry_bytes", "bytes"},
    {"cache.corrupt", "count"},
    {"cache.store_ms_p50", "ms"},
    {"cache.encode_us_p50", "us"},
    {"sim.events", "count"},
    {"sim.peak_queue_depth", "count"},
    {"sim.calendar", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.queue_ns_per_op.heap", "ns"},
    {"sim.queue_ns_per_op.calendar", "ns"},
    {"hw.interrupts", "count"},
    {"hw.cpu_wakeups", "count"},
    {"energy.components", "count"},
    {"apps.instructions", "count"},
    {"dsp.fft_us", "us"},
    {"dsp.mfcc_us", "us"},
    {"dsp.dtw_us", "us"},
    {"dsp.qrs_us", "us"},
    {"codecs.jpeg_decode_us", "us"},
    {"net.grants", "count"},
    {"net.drops", "count"},
    {"net.drop_frac", "ratio"},
    {"net.retries", "count"},
    {"net.utilization", "ratio"},
    {"net.airtime_wait_s", "s"},
    {"env.reboots", "count"},
    {"env.windows_lost", "count"},
    {"env.samples_lost", "count"},
};

class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDef>& defs) : defs_{defs} {
    for (const auto& d : defs_) values_[d.name] = 0.0;
  }
  void set(const std::string& name, double value) {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      std::cerr << "perfbench: internal error: unknown metric " << name << '\n';
      std::exit(3);
    }
    it->second = value;
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << '{';
    for (std::size_t i = 0; i < defs_.size(); ++i) {
      const double v = values_.at(defs_[i].name);
      os << (i ? ", " : "") << '"' << defs_[i].name << "\": {\"value\": "
         << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << defs_[i].unit << "\"}";
    }
    os << '}';
    return os.str();
  }

 private:
  const std::vector<MetricDef>& defs_;
  std::map<std::string, double> values_;
};

// --- Golden digests ---------------------------------------------------------

/// FNV-1a-64 over the result JSON of one pass (each text followed by '\n'),
/// at the default seed. A change that alters any simulated number changes
/// these; update them only together with the change that is meant to.
constexpr std::uint64_t kDefaultSeed = 1;
const std::map<std::string, std::string>& golden_digests() {
  static const std::map<std::string, std::string> golden = {
      {"paper_sweep", "9aba7922c42e9d8f"},
      {"fleet_ideal", "89eb0dde48f1bfe4"},
      {"fleet_contended", "86d04ae05a432d8a"},
      {"cache_replay", "2635b2adb4bfa267"},
  };
  return golden;
}

// --- The run ----------------------------------------------------------------

/// One timed pass of a workload: host seconds of its library calls, and
/// what it delivered.
struct PassOutcome {
  double seconds = 0.0;
  double hub_seconds = 0.0;
  double events = 0.0;
};

class Bench {
 public:
  explicit Bench(Args args)
      : args_{std::move(args)},
        nproc_{available_cpus()},
        jobs_{nproc_},
        shards_{std::min(nproc_, kShardBlocks)},
        spans_{args_.trace},
        e2e_{kEndToEnd},
        layer_{kPerLayer} {
    fs::create_directories(args_.work_dir);
    cache_root_ = fs::path{args_.work_dir} / ("cache-" + std::to_string(::getpid()));
  }

  ~Bench() {
    std::error_code ec;
    fs::remove_all(cache_root_, ec);
  }

  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  int run() {
    if (args_.workload == "paper_sweep") {
      run_paper_sweep();
    } else if (args_.workload == "fleet_ideal") {
      run_fleet(/*contended=*/false);
    } else if (args_.workload == "fleet_contended") {
      run_fleet(/*contended=*/true);
    } else {
      run_cache_replay();
    }
    return finish();
  }

 private:
  // -- Bookkeeping ---------------------------------------------------------

  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  void note(const std::string& line) { std::cout << "perfbench: " << line << '\n'; }

  /// Digest check against the committed golden value (default seed only).
  void check_golden(std::uint64_t digest) {
    note("result digest " + hex64(digest) + " (seed " + std::to_string(args_.seed) + ")");
    if (args_.seed != kDefaultSeed || !args_.inject.empty()) return;
    const std::string& golden = golden_digests().at(args_.workload);
    const bool ok = golden == hex64(digest);
    if (!ok) note("DIGEST MISMATCH: expected " + golden);
    op(ok);
  }

  /// Repeats `once` (one complete set-up, returning its own seconds) at
  /// least three times and for at least half a second; setup_s is the
  /// median, so one cold repetition does not set it.
  template <typename Fn>
  void timed_setup(Fn&& once) {
    std::vector<double> reps;
    const auto t0 = Clock::now();
    while (reps.size() < 3 || (seconds_since(t0) < 0.5 && reps.size() < 100000)) {
      auto s = spans_.scope("setup");
      reps.push_back(once());
    }
    setup_s_ = median(reps);
    setup_reps_ = reps.size();
  }

  /// Repeats `pass` for `seconds` and at least `min_passes` times; returns
  /// the per-pass outcomes. Passes are numbered from 1 across phases.
  template <typename Fn>
  std::vector<PassOutcome> timed_phase(double seconds, std::size_t min_passes, Fn&& pass) {
    std::vector<PassOutcome> out;
    const auto t0 = Clock::now();
    while (out.size() < min_passes || seconds_since(t0) < seconds) {
      auto s = spans_.scope("pass");
      out.push_back(pass(++passes_run_));
    }
    return out;
  }

  /// Fills the end-to-end metrics from the untraced phase's passes.
  void record_phase(const std::vector<PassOutcome>& passes) {
    std::vector<double> secs;
    double hub_s = 0.0, events = 0.0;
    for (const auto& p : passes) {
      secs.push_back(p.seconds);
      hub_s += p.hub_seconds;
      events += p.events;
    }
    // Throughputs divide a pass's mean deliveries by the median pass time,
    // so one pass slowed by a neighbour on the host does not move them.
    run_s_ = median(secs);
    const double n = static_cast<double>(passes.size());
    const double events_per_s = run_s_ > 0.0 ? events / n / run_s_ : 0.0;
    e2e_.set("setup_s", setup_s_);
    e2e_.set("run_s", run_s_);
    e2e_.set("hub_seconds_per_s", run_s_ > 0.0 ? hub_s / n / run_s_ : 0.0);
    e2e_.set("events_per_s", events_per_s);
    std::ostringstream os;
    os << "setup reps=" << setup_reps_ << " passes=" << passes.size() << " nproc=" << nproc_
       << " jobs=" << jobs_ << " shards=" << shards_ << " events_per_s=" << events_per_s
       << " threads=" << threads_ << " pass_s=";
    for (std::size_t i = 0; i < secs.size(); ++i) os << (i ? "," : "") << secs[i];
    note(os.str());
  }

  /// An untimed warm-up pass (pass 0: it sets the reference digests and
  /// lets allocators and page tables settle, so no timed pass is cold), then
  /// the untraced phase for the end-to-end numbers, at least three passes so
  /// the median is not one pass. With --trace 1 the untraced phase runs for
  /// half the time and a traced phase follows, giving trace.overhead_frac;
  /// one pass per half keeps the traced run of a fleet short.
  template <typename Fn>
  void measure(Fn&& pass) {
    const bool traced = spans_.on();
    spans_.set_on(false);
    (void)pass(0);
    const auto untraced =
        traced ? timed_phase(args_.seconds / 2, 1, pass) : timed_phase(args_.seconds, 3, pass);
    record_phase(untraced);
    if (!traced) return;
    spans_.set_on(true);
    std::vector<double> secs;
    const auto traced_passes = timed_phase(args_.seconds / 2, 1, pass);
    for (const auto& p : traced_passes) secs.push_back(p.seconds);
    traced_passes_ = traced_passes.size();
    layer_.set("trace.overhead_frac", run_s_ > 0.0 ? median(secs) / run_s_ : 0.0);
  }

  /// A span's summed duration per traced pass (spans are recorded in the
  /// traced phase only).
  double per_pass_ms(const std::string& name) const {
    if (traced_passes_ == 0) return 0.0;
    return sum(spans_.durations(name)) * 1e3 / static_cast<double>(traced_passes_);
  }

  /// Counters every simulating workload reports per pass.
  void record_result_counters(const std::vector<core::ScenarioResult>& results) {
    double interrupts = 0, wakeups = 0, components = 0, instructions = 0, events = 0;
    std::size_t depth = 0, calendar = 0;
    for (const auto& r : results) {
      interrupts += static_cast<double>(r.interrupts_raised);
      wakeups += static_cast<double>(r.cpu_wakeups);
      components += static_cast<double>(r.energy.by_component().size());
      for (const auto& hub : r.hubs) {
        for (const auto& [id, app] : hub.apps) {
          instructions += static_cast<double>(app.instructions);
        }
      }
      const auto& k = r.energy.kernel();
      events += static_cast<double>(k.events_dispatched);
      depth = std::max(depth, k.peak_queue_depth);
      if (k.scheduler == "calendar") ++calendar;
    }
    layer_.set("hw.interrupts", interrupts);
    layer_.set("hw.cpu_wakeups", wakeups);
    layer_.set("energy.components", components);
    layer_.set("apps.instructions", instructions);
    layer_.set("sim.events", events);
    layer_.set("sim.peak_queue_depth", static_cast<double>(depth));
    layer_.set("sim.calendar", static_cast<double>(calendar));
    peak_depth_ = depth;
  }

  /// Layer timings that do not depend on the workload's pass: the event
  /// queue at the recorded depth under each scheduler, and the app kernels.
  void record_kernel_timings() {
    {
      auto s = spans_.scope("sim.queue_replay");
      layer_.set("sim.queue_ns_per_op.heap",
                 queue_ns_per_op(sim::SchedulerKind::kBinaryHeap, peak_depth_, args_.seed));
      layer_.set("sim.queue_ns_per_op.calendar",
                 queue_ns_per_op(sim::SchedulerKind::kCalendar, peak_depth_, args_.seed));
    }
    auto s = spans_.scope("dsp.kernels");
    const KernelTimes k = time_app_kernels(args_.seed);
    layer_.set("dsp.fft_us", k.fft_us);
    layer_.set("dsp.mfcc_us", k.mfcc_us);
    layer_.set("dsp.dtw_us", k.dtw_us);
    layer_.set("dsp.qrs_us", k.qrs_us);
    layer_.set("codecs.jpeg_decode_us", k.jpeg_decode_us);
  }

  /// Set-up metrics from the spans of the set-up repetitions.
  void record_setup_spans() {
    const double reps = static_cast<double>(setup_reps_);
    layer_.set("scenario.build_ms", sum(spans_.durations("scenario.build")) * 1e3 / reps);
    layer_.set("scenario.validate_ms", sum(spans_.durations("scenario.validate")) * 1e3 / reps);
    std::vector<double> key_us = spans_.durations("sweep.key");
    for (double& v : key_us) v *= 1e6;
    layer_.set("sweep.key_us", median(key_us));
  }

  /// One set-up repetition's build/validate/key over `make()`'s scenarios.
  template <typename Make>
  std::vector<core::Scenario> build_validate_key(Make&& make, std::vector<std::string>* keys) {
    std::vector<core::Scenario> scenarios;
    {
      auto s = spans_.scope("scenario.build");
      scenarios = make();
    }
    std::size_t invalid = 0;
    {
      auto s = spans_.scope("scenario.validate");
      for (const auto& sc : scenarios) {
        if (!sc.validate().empty()) ++invalid;
      }
    }
    invalid_in_setup_ = invalid;
    if (keys) keys->clear();
    std::vector<double> key_bytes;
    for (const auto& sc : scenarios) {
      auto s = spans_.scope("sweep.key");
      std::string key = core::scenario_key(sc);
      key_bytes.push_back(static_cast<double>(key.size()));
      if (keys) keys->push_back(std::move(key));
    }
    key_bytes_ = median(std::move(key_bytes));
    return scenarios;
  }

  // -- paper_sweep ---------------------------------------------------------

  void run_paper_sweep() {
    auto make = [&] {
      auto v = paper_sweep_scenarios(args_.seed);
      if (args_.inject == "invalid-scenario") {
        v.push_back(
            core::Scenario::builder().apps({apps::AppId::kA2StepCounter}).windows(0).build());
      }
      return v;
    };
    std::vector<core::Scenario> scenarios;
    timed_setup([&] {
      const auto t0 = Clock::now();
      scenarios = build_validate_key(make, nullptr);
      return seconds_since(t0);
    });
    record_setup_spans();
    threads_ = jobs_;
    layer_.set("sweep.jobs", jobs_);
    if (invalid_in_setup_ > 0) {
      note(std::to_string(invalid_in_setup_) + " scenario(s) fail validate()");
    }

    std::vector<std::uint64_t> first_digests;
    std::vector<core::ScenarioResult> last;
    std::vector<std::string> last_texts;
    double memo_hits = 0, disk_hits = 0;
    auto pass = [&](std::size_t index) {
      const auto t0 = Clock::now();
      core::SweepRunner runner{sweep_options(jobs_)};
      std::vector<core::ScenarioResult> results;
      {
        auto s = spans_.scope("sweep.run");
        results = runner.run(scenarios);
      }
      std::vector<std::string> texts;
      texts.reserve(results.size());
      for (const auto& r : results) {
        auto s = spans_.scope("result_json");
        texts.push_back(core::to_json_text(r));
      }
      PassOutcome p{seconds_since(t0), 0.0, static_cast<double>(runner.stats().events_dispatched)};
      memo_hits = static_cast<double>(runner.stats().cache_hits);
      disk_hits = static_cast<double>(runner.stats().disk_hits);
      std::uint64_t pass_digest = fnv1a("");
      for (std::size_t i = 0; i < results.size(); ++i) {
        p.hub_seconds += hub_seconds(results[i]);
        const std::uint64_t d = fnv1a(texts[i]);
        pass_digest = fnv1a(texts[i] + '\n', pass_digest);
        if (index == 0) first_digests.push_back(d);
        op(results[i].ok() && hub_invariants_hold(results[i]) && d == first_digests[i]);
      }
      if (index == 0) check_golden(pass_digest);
      last = std::move(results);
      last_texts = std::move(texts);
      return p;
    };
    measure(pass);
    print_savings(last);

    layer_.set("sweep.memo_hits", memo_hits);
    layer_.set("sweep.disk_hits", disk_hits);
    if (!spans_.on()) return;
    record_common_traced(last, last_texts);
    layer_.set("runner.shards", 1);

    // Each scenario once more through ScenarioRunner::run on this thread:
    // per-scenario cost, the batch's parallel efficiency, and a byte-for-
    // byte comparison of the single-threaded output with the sweep's.
    std::vector<double> scenario_s;
    bool identical = true;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      core::ScenarioResult r;
      {
        auto s = spans_.scope("runner.run");
        const auto t0 = Clock::now();
        r = core::ScenarioRunner{scenarios[i]}.run();
        scenario_s.push_back(seconds_since(t0));
      }
      identical = identical && core::to_json_text(r) == last_texts[i];
    }
    note(std::string{"single-threaded ScenarioRunner output vs sweep output: "} +
         (identical ? "byte-identical" : "DIVERGED"));
    op(identical);
    std::vector<double> ms = scenario_s;
    for (double& v : ms) v *= 1e3;
    layer_.set("sweep.scenario_ms_p50", median(ms));
    layer_.set("sweep.scenario_ms_max", ms.empty() ? 0.0 : *std::max_element(ms.begin(), ms.end()));
    const double batch_s = median(spans_.durations("sweep.run"));
    layer_.set("sweep.parallel_efficiency",
               batch_s > 0.0 ? sum(scenario_s) / (jobs_ * batch_s) : 0.0);
    const double events = layer_events_;
    layer_.set("sim.ns_per_event", events > 0.0 ? sum(scenario_s) * 1e9 / events : 0.0);
    record_kernel_timings();
  }

  /// The paper's headline check: mean savings of Batching, COM and BCOM over
  /// Baseline across the ten lightweight apps, next to the paper's figures.
  /// The model is validated on shape only, so this is printed, not gated.
  void print_savings(const std::vector<core::ScenarioResult>& r) {
    if (r.size() < static_cast<std::size_t>(kLightweightBlock)) return;
    double batching = 0, com = 0, bcom = 0;
    for (int i = 0; i < kLightweightBlock; i += 4) {
      const auto& base = r[static_cast<std::size_t>(i)].energy;
      batching += r[static_cast<std::size_t>(i + 1)].energy.savings_vs(base);
      com += r[static_cast<std::size_t>(i + 2)].energy.savings_vs(base);
      bcom += r[static_cast<std::size_t>(i + 3)].energy.savings_vs(base);
    }
    const double n = kLightweightBlock / 4.0;
    std::ostringstream os;
    os.precision(3);
    os << "mean savings over Baseline, ten lightweight apps: Batching " << 100 * batching / n
       << "% (paper 52%), COM " << 100 * com / n << "% (paper 85%), BCOM " << 100 * bcom / n
       << "%";
    note(os.str());
  }

  /// Per-layer numbers every simulating workload shares, from the traced
  /// phase's spans and the last pass's results.
  void record_common_traced(const std::vector<core::ScenarioResult>& results,
                            const std::vector<std::string>& texts) {
    record_result_counters(results);
    layer_events_ = 0;
    for (const auto& r : results) {
      layer_events_ += static_cast<double>(r.energy.kernel().events_dispatched);
    }
    layer_.set("result_json.ms", per_pass_ms("result_json"));
    double bytes = 0;
    for (const auto& t : texts) bytes += static_cast<double>(t.size());
    layer_.set("result_json.bytes", bytes);
    double grants = 0, drops = 0, retries = 0, wait_s = 0, util = 0;
    double reboots = 0, windows_lost = 0, samples_lost = 0;
    for (const auto& r : results) {
      const auto& c = r.energy.congestion();
      grants += static_cast<double>(c.grants);
      drops += static_cast<double>(c.drops);
      retries += static_cast<double>(c.retries);
      wait_s += c.airtime_wait.to_seconds();
      util = std::max(util, c.utilization);
      const auto& a = r.energy.availability();
      reboots += static_cast<double>(a.reboots);
      windows_lost += static_cast<double>(a.windows_lost);
      samples_lost += static_cast<double>(a.samples_lost_faults + a.samples_lost_outage +
                                          a.samples_lost_crash);
    }
    layer_.set("net.grants", grants);
    layer_.set("net.drops", drops);
    layer_.set("net.drop_frac", grants + drops > 0 ? drops / (grants + drops) : 0.0);
    layer_.set("net.retries", retries);
    layer_.set("net.utilization", util);
    layer_.set("net.airtime_wait_s", wait_s);
    layer_.set("env.reboots", reboots);
    layer_.set("env.windows_lost", windows_lost);
    layer_.set("env.samples_lost", samples_lost);
  }

  // -- fleet_ideal / fleet_contended --------------------------------------

  /// Both fleets run their timed passes in one shape and, in the traced
  /// run, once in the other: sharded and single-kernel output must match
  /// byte for byte, and the pair gives the shard speedup. The ideal fleet
  /// times the sharded run. The contended fleet times the single kernel:
  /// its sharded run meets at a barrier every 10 ms reservation window, and
  /// on a VM whose vCPUs lose a drifting 17-40% of their time to the host
  /// each barrier waits for the most-delayed vCPU, which moved whole runs
  /// by up to 2x (10-seed spread of run_s 0.39) — too unsteady to gate.
  /// Its barrier and arbitration cost is still measured, per layer.
  void run_fleet(bool contended) {
    const int per_block = contended ? kContendedHubsPerBlock : kIdealHubsPerBlock;
    core::Scenario sc;
    timed_setup([&] {
      const auto t0 = Clock::now();
      auto v = build_validate_key(
          [&] {
            return std::vector<core::Scenario>{fleet_scenario(args_.seed, per_block, contended)};
          },
          nullptr);
      const double s = seconds_since(t0);
      sc = std::move(v.front());
      return s;
    });
    record_setup_spans();
    const core::ExecPolicy sharded{.shards = shards_};
    const core::ExecPolicy timed = contended ? core::ExecPolicy{} : sharded;
    const int sharded_threads = core::ScenarioRunner{sc}.effective_shards(sharded);
    threads_ = core::ScenarioRunner{sc}.effective_shards(timed);

    std::uint64_t first_digest = 0;
    core::ScenarioResult last;
    std::string last_text;
    auto pass = [&](std::size_t index) {
      const auto t0 = Clock::now();
      core::ScenarioResult r;
      {
        auto s = spans_.scope("runner.run");
        r = core::run_scenario(sc, timed);
      }
      std::string text;
      {
        auto s = spans_.scope("result_json");
        text = core::to_json_text(r);
      }
      PassOutcome p{seconds_since(t0), hub_seconds(r),
                    static_cast<double>(r.energy.kernel().events_dispatched)};
      const std::uint64_t d = fnv1a(text);
      if (index == 0) {
        first_digest = d;
        check_golden(fnv1a(text + '\n'));
      }
      op(r.ok() && hub_invariants_hold(r) && r.energy.kernel().shards == threads_ &&
         d == first_digest);
      last = std::move(r);
      last_text = std::move(text);
      return p;
    };
    measure(pass);

    std::ostringstream os;
    const auto& k = last.energy.kernel();
    os << "fleet hubs=" << last.hubs.size() << " events=" << k.events_dispatched
       << " shards=" << k.shards << " shard0_scheduler=" << k.scheduler
       << " peak_depth=" << k.peak_queue_depth;
    if (contended) {
      const auto& c = last.energy.congestion();
      const auto& a = last.energy.availability();
      os << " grants=" << c.grants << " drops=" << c.drops << " reboots=" << a.reboots;
    }
    note(os.str());
    if (!spans_.on()) return;
    record_common_traced({last}, {last_text});
    layer_.set("runner.shards", sharded_threads);

    core::ScenarioResult other;
    const auto t0 = Clock::now();
    {
      auto s = spans_.scope("runner.run_other_shape");
      other = core::run_scenario(sc, contended ? sharded : core::ExecPolicy{});
    }
    const double other_s = seconds_since(t0);
    const bool identical = core::to_json_text(other) == last_text;
    note(std::string{"single-kernel vs sharded output: "} +
         (identical ? "byte-identical" : "DIVERGED"));
    op(identical);
    const double timed_s = median(spans_.durations("runner.run"));
    const double single_s = contended ? timed_s : other_s;
    const double sharded_s = contended ? other_s : timed_s;
    layer_.set("runner.single_s", single_s);
    layer_.set("runner.sharded_s", sharded_s);
    const double speedup = sharded_s > 0.0 ? single_s / sharded_s : 0.0;
    layer_.set("runner.shard_speedup", speedup);
    layer_.set("runner.shard_efficiency", sharded_threads > 0 ? speedup / sharded_threads : 0.0);
    layer_.set("sim.ns_per_event", layer_events_ > 0 ? single_s * 1e9 / layer_events_ : 0.0);
    record_kernel_timings();
  }

  // -- cache_replay ----------------------------------------------------------

  /// Reads one on-disk entry and returns its encode_result() payload (the
  /// entry layout is documented in cache/result_cache.h).
  static std::optional<std::string> entry_payload(const fs::path& path) {
    std::ifstream in{path, std::ios::binary};
    if (!in) return std::nullopt;
    const std::string bytes{std::istreambuf_iterator<char>{in}, {}};
    auto u64_at = [&](std::size_t off) {  // little-endian
      std::uint64_t v = 0;
      for (std::size_t i = 8; i-- > 0;) v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
      return v;
    };
    if (bytes.size() < 16) return std::nullopt;
    const std::uint64_t key_len = u64_at(8);
    if (key_len > bytes.size() - 16 || bytes.size() - 16 - key_len < 8) return std::nullopt;
    const std::size_t payload_at = 16 + key_len + 8;
    const std::uint64_t payload_len = u64_at(16 + key_len);
    if (payload_len > bytes.size() - payload_at) return std::nullopt;
    return bytes.substr(payload_at, payload_len);
  }

  void run_cache_replay() {
    // What the cache will hold, simulated once before set-up (this is
    // paper_sweep's and the fleets' work, measured there, so it is not part
    // of setup_s). The encoded bytes are the reference every hit must match.
    const auto prep_t0 = Clock::now();
    std::vector<core::ScenarioResult> results;
    {
      auto s = spans_.scope("prep.simulate");
      results = core::SweepRunner{sweep_options(jobs_)}.run(cache_scenarios(args_.seed));
    }
    std::vector<std::string> reference;
    std::uint64_t digest = fnv1a("");
    for (const auto& r : results) {
      op(r.ok() && hub_invariants_hold(r));
      reference.push_back(cache::encode_result(r));
      digest = fnv1a(core::to_json_text(r) + '\n', digest);
    }
    check_golden(digest);
    note("prep: simulated " + std::to_string(results.size()) + " cached scenarios in " +
         std::to_string(seconds_since(prep_t0)) + " s (not part of setup_s)");

    std::vector<core::Scenario> scenarios;
    std::vector<std::string> keys;
    fs::path dir;
    int rep = 0;
    timed_setup([&] {
      std::error_code ec;
      if (!dir.empty()) fs::remove_all(dir, ec);
      dir = cache_root_ / ("rep" + std::to_string(rep++));
      const auto t0 = Clock::now();
      scenarios = build_validate_key([&] { return cache_scenarios(args_.seed); }, &keys);
      cache::ResultCache cache{dir};
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        auto s = spans_.scope("cache.store");
        if (!cache.store(keys[i], results[i])) ++store_failures_;
      }
      const double secs = seconds_since(t0);
      if (spans_.on()) {
        for (const auto& r : results) {
          auto s = spans_.scope("cache.encode");
          (void)cache::encode_result(r);
        }
      }
      return secs;
    });
    op(store_failures_ == 0);
    record_setup_spans();
    threads_ = 1;
    layer_.set("sweep.jobs", 1);

    if (args_.inject == "corrupt-entry") {
      std::ofstream{cache::ResultCache{dir}.entry_path(keys.front()),
                    std::ios::binary | std::ios::trunc}
          << "not a cache entry";
    }

    // 1000+ single-scenario queries per pass in a seeded shuffle, each
    // through a fresh jobs-1 SweepRunner over the filled directory.
    std::vector<std::size_t> order;
    while (order.size() < 1000) {
      for (std::size_t i = 0; i < scenarios.size(); ++i) order.push_back(i);
    }
    std::vector<double> query_ms;
    double corrupt = 0, pass_disk_hits = 0;
    auto pass = [&](std::size_t index) {
      sim::Rng rng{args_.seed * 1000003u + index};
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.next_u64() % (i + 1)]);
      }
      PassOutcome p;
      pass_disk_hits = 0;
      for (std::size_t q : order) {
        const auto t0 = Clock::now();
        core::ScenarioResult r;
        core::SweepStats stats;
        {
          auto s = spans_.scope("sweep.run_one");
          core::SweepRunner runner{sweep_options(1, dir.string())};
          r = runner.run_one(scenarios[q]);
          stats = runner.stats();
          corrupt += static_cast<double>(runner.disk_cache()->stats().corrupt_entries);
        }
        const double secs = seconds_since(t0);
        p.seconds += secs;
        query_ms.push_back(secs * 1e3);
        p.hub_seconds += hub_seconds(r);
        p.events += static_cast<double>(r.energy.kernel().events_dispatched);
        pass_disk_hits += static_cast<double>(stats.disk_hits);
        op(stats.disk_hits == 1 && stats.executed == 0 && cache::encode_result(r) == reference[q]);
      }
      return p;
    };
    measure(pass);
    const std::size_t queries = query_ms.size();
    {
      std::ostringstream os;
      os << "queries=" << queries << " query_p50_ms=" << median(query_ms)
         << " query_p99_ms=" << backed_percentile(query_ms, 0.99) << " (p99 backed by "
         << static_cast<std::size_t>(static_cast<double>(queries) * 0.01) << " samples beyond it)";
      note(os.str());
    }
    if (!spans_.on()) return;

    // Traced phase only from here: query latencies of the traced passes.
    std::vector<double> traced_ms;
    for (double s : spans_.durations("sweep.run_one")) traced_ms.push_back(s * 1e3);
    layer_.set("cache.query_p50_ms", median(traced_ms));
    layer_.set("cache.query_p99_ms", backed_percentile(traced_ms, 0.99));
    layer_.set("cache.queries", static_cast<double>(traced_ms.size()));
    layer_.set("sweep.disk_hits", pass_disk_hits);
    layer_.set("cache.corrupt", corrupt);
    std::vector<double> store_ms = spans_.durations("cache.store");
    for (double& v : store_ms) v *= 1e3;
    layer_.set("cache.store_ms_p50", median(store_ms));
    std::vector<double> encode_us = spans_.durations("cache.encode");
    for (double& v : encode_us) v *= 1e6;
    layer_.set("cache.encode_us_p50", median(encode_us));

    // The two halves of a hit in isolation, over one pass's query order:
    // ResultCache::lookup (read, verify, decode) and decode_result alone.
    cache::ResultCache cache{dir};
    std::vector<double> lookup_us, decode_us, entry_bytes;
    for (std::size_t q : order) {
      auto t0 = Clock::now();
      {
        auto s = spans_.scope("cache.lookup");
        if (!cache.lookup(keys[q])) op(false);
      }
      lookup_us.push_back(seconds_since(t0) * 1e6);
      const auto path = cache.entry_path(keys[q]);
      const auto payload = entry_payload(path);
      if (!payload) {
        op(false);
        continue;
      }
      entry_bytes.push_back(static_cast<double>(fs::file_size(path)));
      t0 = Clock::now();
      {
        auto s = spans_.scope("cache.decode");
        if (!cache::decode_result(*payload)) op(false);
      }
      decode_us.push_back(seconds_since(t0) * 1e6);
    }
    layer_.set("cache.lookup_us_p50", median(lookup_us));
    layer_.set("cache.lookup_us_p99", backed_percentile(lookup_us, 0.99));
    layer_.set("cache.decode_us_p50", median(decode_us));
    layer_.set("cache.entry_bytes", median(entry_bytes));
    if (!entry_bytes.empty()) {
      const auto [lo, hi] = std::minmax_element(entry_bytes.begin(), entry_bytes.end());
      std::ostringstream os;
      os << "cache entries: " << scenarios.size() << " of " << *lo << " to " << *hi << " bytes";
      note(os.str());
    }
    record_kernel_timings();
  }

  // -- Output ------------------------------------------------------------------

  int finish() {
    e2e_.set("peak_rss_mb", peak_rss_mb());
    layer_.set("host.nproc", nproc_);
    layer_.set("sweep.key_bytes", key_bytes_);
    if (spans_.on()) {
      const fs::path trace_path = fs::path{args_.work_dir} / ("trace-" + args_.workload + "-seed" +
                                                             std::to_string(args_.seed) + ".json");
      spans_.write_chrome_trace(trace_path);
      std::cerr << "perfbench: spans written to " << trace_path.string()
                << "\nself time per span (s):\n";
      for (const auto& [name, secs] : spans_.self_seconds()) {
        std::cerr << "  " << name << ' ' << secs << '\n';
      }
    }
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
              << attempted_ << ", \"failed\": " << failed_
              << ", \"metrics\": " << (spans_.on() ? layer_.json() : e2e_.json()) << "}"
              << std::endl;
    return 0;
  }

  Args args_;
  int nproc_;
  int jobs_;
  int shards_;
  int threads_ = 1;
  SpanRecorder spans_;
  MetricSet e2e_;
  MetricSet layer_;
  fs::path cache_root_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double setup_s_ = 0.0;
  std::size_t setup_reps_ = 0;
  double run_s_ = 0.0;
  std::size_t traced_passes_ = 0;
  std::size_t passes_run_ = 0;  // pass 0 is the warm-up
  double key_bytes_ = 0.0;
  std::size_t peak_depth_ = 0;
  std::size_t invalid_in_setup_ = 0;
  std::size_t store_failures_ = 0;
  double layer_events_ = 0.0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Bench bench{perfbench::parse_args(argc, argv)};
  return bench.run();
}
