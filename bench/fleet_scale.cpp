// Fleet scaling — beyond the paper: one shared simulation clock driving
// 1→64 hubs of mixed app portfolios (the ROADMAP's "millions of users"
// direction in miniature). Reports per-hub and fleet-total energy under
// Baseline vs BCOM and checks the accounting invariant (Σ routine == ∫P dt)
// on every hub's ledger slice.
//
// Fleet sizes sweep through SweepRunner, so --jobs=N fans the sizes out.
//
// The closing section exercises the sharded fleet kernel at scale: a
// --hubs=N (default 1024, CI smokes 10000) IdealMedium fleet described by
// three count-compressed templates — so the scenario itself stays three
// table entries no matter the fleet size, and hubs materialize lazily
// inside their shard workers — run single-threaded and again with
// ExecPolicy{shards = jobs}. The bench exits non-zero unless the two
// ScenarioResult JSON texts are byte-identical and the fleet dispatched
// events. Its wall time and peak RSS are perfbench's to measure
// (fleet_ideal); CI reads this run's peak RSS from outside the process.
#include <cmath>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "core/result_json.h"

using namespace iotsim;

namespace {

// Three heterogeneous portfolios cycled across the fleet: a wellness
// wearable hub, an environment/home hub, and a telemetry hub.
const std::vector<std::vector<apps::AppId>>& portfolios() {
  using apps::AppId;
  static const std::vector<std::vector<apps::AppId>> p = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  return p;
}

core::Scenario fleet_scenario(int hubs, core::Scheme scheme, int windows) {
  auto builder = core::Scenario::builder()
                     .scheme(scheme)
                     .windows(windows)
                     .world(bench::active_world());
  const auto& mixes = portfolios();
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), mixes[static_cast<std::size_t>(i) % mixes.size()]);
  }
  return builder.build();
}

/// The lazy-materialization shape: the same three portfolios as contiguous
/// count-compressed blocks, so a 10k-hub fleet is three HubInstance entries
/// (hubs are only ever built inside their shard worker).
core::Scenario compressed_fleet_scenario(int hubs, core::Scheme scheme, int windows) {
  auto builder = core::Scenario::builder()
                     .scheme(scheme)
                     .windows(windows)
                     .world(bench::active_world());
  const auto& mixes = portfolios();
  const int per = hubs / static_cast<int>(mixes.size());
  int assigned = 0;
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    const int count = m + 1 < mixes.size() ? per : hubs - assigned;
    if (count <= 0) continue;
    builder.add_hub(hw::default_hub_spec(), mixes[m], count);
    assigned += count;
  }
  return builder.build();
}

/// Largest relative error between a hub report's routine-sum and
/// component-sum — both integrate the same per-hub ledger slice, so the
/// invariant must hold per hub, not just fleet-wide.
double worst_hub_invariant_error(const core::ScenarioResult& r) {
  double worst = 0.0;
  for (const auto& hub : r.hubs) {
    double routine_sum = 0.0;
    for (auto rt : energy::kAllRoutines) routine_sum += hub.energy.joules(rt);
    double component_sum = 0.0;
    for (const auto& [name, row] : hub.energy.by_component()) {
      for (double j : row) component_sum += j;
    }
    const double scale = std::max(std::abs(routine_sum), 1e-12);
    worst = std::max(worst, std::abs(routine_sum - component_sum) / scale);
  }
  return worst;
}

struct PerHubSpread {
  double min_j, mean_j, max_j;
};

PerHubSpread hub_spread(const core::ScenarioResult& r) {
  PerHubSpread s{1e300, 0.0, 0.0};
  for (const auto& hub : r.hubs) {
    const double j = hub.total_joules();
    s.min_j = std::min(s.min_j, j);
    s.max_j = std::max(s.max_j, j);
    s.mean_j += j;
  }
  s.mean_j /= static_cast<double>(r.hubs.size());
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv, bench::Options::with_windows(2))};
  std::cout << "=== Fleet scale: 1-64 mixed-portfolio hubs, Baseline vs BCOM ===\n\n";

  const int sizes[] = {1, 2, 4, 8, 16, 32, 64};
  const core::Scheme schemes[] = {core::Scheme::kBaseline, core::Scheme::kBcom};

  std::vector<core::Scenario> sweep;
  for (int n : sizes) {
    for (auto scheme : schemes) sweep.push_back(fleet_scenario(n, scheme, session.windows()));
  }
  session.prefetch(sweep);

  trace::TablePrinter t{{"Hubs", "Scheme", "Fleet J", "J/hub (min/mean/max)", "Interrupts",
                        "CPU wakeups", "QoS", "Inv. err"}};
  bool invariant_ok = true;

  for (int n : sizes) {
    for (auto scheme : schemes) {
      const auto r = session.run(fleet_scenario(n, scheme, session.windows()));
      if (!r.ok()) {
        std::cerr << "fleet scenario invalid\n";
        return 1;
      }
      if (static_cast<int>(r.hubs.size()) != n) {
        std::cerr << "expected " << n << " hub sections, got " << r.hubs.size() << "\n";
        return 1;
      }
      const double inv = worst_hub_invariant_error(r);
      invariant_ok = invariant_ok && inv < 1e-9;
      const auto spread = hub_spread(r);

      using TP = trace::TablePrinter;
      t.add_row({std::to_string(n), std::string{to_string(scheme)},
                 TP::num(r.total_joules(), 5),
                 TP::num(spread.min_j, 4) + "/" + TP::num(spread.mean_j, 4) + "/" +
                     TP::num(spread.max_j, 4),
                 std::to_string(r.interrupts_raised), std::to_string(r.cpu_wakeups),
                 r.qos_met ? "met" : "MISSED", TP::num(inv, 2)});
    }
  }
  std::cout << t.render() << '\n';

  // Per-hub sections of the largest BCOM fleet, first few hubs: the three
  // portfolio classes should be visible in the per-hub energy.
  const auto big = session.run(fleet_scenario(64, core::Scheme::kBcom, session.windows()));
  trace::TablePrinter ht{{"Hub", "Energy (mJ)", "Interrupts", "Sensor errs", "QoS"}};
  for (std::size_t i = 0; i < 6; ++i) {
    const auto& hub = big.hubs[i];
    ht.add_row({hub.name, trace::TablePrinter::num(hub.total_joules() * 1e3, 5),
                std::to_string(hub.interrupts_raised), std::to_string(hub.sensor_read_errors),
                hub.qos_met ? "met" : "MISSED"});
  }
  std::cout << "First 6 of 64 BCOM hubs (portfolio classes cycle every 3):\n"
            << ht.render() << '\n';

  std::cout << "per-hub accounting invariant (sum routine == integral P dt): "
            << (invariant_ok ? "holds" : "VIOLATED") << '\n';

  // --- Sharded fleet kernel at scale -------------------------------------
  // One big IdealMedium fleet, run twice: single-threaded, then sharded
  // across `jobs` workers. The two results must serialize byte-identically.
  const int big_hubs = session.hubs_or(1024);
  const int shard_jobs = [&] {
    if (session.options().jobs > 0) return session.options().jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
  }();
  std::cout << "\nSharded kernel: " << big_hubs << " BCOM hubs, 1 vs " << shard_jobs
            << " shards\n";

  const core::Scenario big_sc =
      compressed_fleet_scenario(big_hubs, core::Scheme::kBcom, session.windows());
  const core::ScenarioResult single = core::run_scenario(big_sc, core::ExecPolicy{});
  const core::ScenarioResult sharded =
      core::run_scenario(big_sc, core::ExecPolicy{.shards = shard_jobs});
  const bool identical = core::to_json_text(single) == core::to_json_text(sharded);
  std::cout << "sharded vs single-thread ScenarioResult JSON: "
            << (identical ? "byte-identical" : "DIVERGED") << '\n';

  const bool dispatched = single.energy.kernel().events_dispatched > 0;
  if (!dispatched) std::cerr << "big fleet dispatched no events\n";

  return invariant_ok && identical && dispatched ? 0 : 1;
}
