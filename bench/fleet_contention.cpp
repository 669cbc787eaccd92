// Fleet contention — what the single-hub figures can't show: 1→64 hubs of
// mixed portfolios sharing one finite-bandwidth access point. Sweeps fleet
// size against uplink capacity (ideal, 20/5/1 Mbit/s), reports per-hub
// airtime-wait spread (mean and p99) plus aggregate network energy, and
// asserts the contention model's core monotonicity: for a fixed fleet,
// shrinking the uplink never lowers aggregate network energy or airtime wait.
//
// Fleet×medium combinations sweep through SweepRunner, so --jobs=N fans the
// grid out; numbers are bit-identical at any job count.
//
// Every section after the prefetch replays memoized scenarios: the grid is
// warmed once (including the CSMA variant of the backoff table) and the
// bench asserts at exit that no section re-executed a scenario the memo
// already held.
//
// The closing section scales one contended fleet to --hubs=N (default 1024,
// CI smokes 10000) behind the mid-tier uplink in window-quantum mode
// (ApConfig::reservation_window): the AP arbitrates airtime in reservation-
// window batches, which is exactly the coupling contract the shard barrier
// can honour — so the fleet runs with shards > 1 while a SharedAccessPoint
// is attached, and the section asserts the sharded result stays
// byte-identical to the single-shard run. The event-driven (non-windowed)
// AP still collapses to one shard; that is asserted via effective_shards.
#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "bench_util.h"
#include "core/result_json.h"

using namespace iotsim;

namespace {

// Same three portfolio classes as fleet_scale: wellness, home, telemetry.
const std::vector<std::vector<apps::AppId>>& portfolios() {
  using apps::AppId;
  static const std::vector<std::vector<apps::AppId>> p = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  return p;
}

struct Uplink {
  const char* label;
  double bytes_per_second;  // <= 0 ⇒ ideal (infinite-capacity) medium
};

constexpr Uplink kUplinks[] = {
    {"ideal", 0.0},
    {"20Mbit", 2.5e6},
    {"5Mbit", 6.25e5},
    {"1Mbit", 1.25e5},
};

core::Scenario fleet_scenario(int hubs, const Uplink& uplink, int windows,
                              net::BackoffPolicy backoff = net::BackoffPolicy::kFifo,
                              sim::Duration reservation_window = sim::Duration::zero()) {
  auto builder = core::Scenario::builder()
                     .scheme(core::Scheme::kBcom)
                     .windows(windows)
                     .world(bench::active_world());
  const auto& mixes = portfolios();
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), mixes[static_cast<std::size_t>(i) % mixes.size()]);
  }
  if (uplink.bytes_per_second > 0.0) {
    net::ApConfig ap;
    ap.bytes_per_second = uplink.bytes_per_second;
    ap.backoff = backoff;
    ap.reservation_window = reservation_window;
    builder.network(ap);
  }
  return builder.build();
}

struct WaitSpread {
  double mean_ms = 0.0;
  double p99_ms = 0.0;
};

WaitSpread wait_spread(const core::ScenarioResult& r) {
  std::vector<double> waits;
  waits.reserve(r.hubs.size());
  for (const auto& hub : r.hubs) waits.push_back(hub.airtime_wait.to_ms());
  WaitSpread s;
  for (double w : waits) s.mean_ms += w;
  s.mean_ms /= static_cast<double>(waits.size());
  std::sort(waits.begin(), waits.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(waits.size())));
  s.p99_ms = waits[std::max<std::size_t>(rank, 1) - 1];
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session{bench::parse_options(argc, argv, bench::Options::with_windows(2))};
  std::cout << "=== Fleet contention: 1-64 BCOM hubs behind one shared uplink ===\n\n";

  const int sizes[] = {1, 2, 4, 8, 16, 32, 64};

  const Uplink mid{"5Mbit", 6.25e5};
  std::vector<core::Scenario> grid;
  for (int n : sizes) {
    for (const auto& uplink : kUplinks) {
      grid.push_back(fleet_scenario(n, uplink, session.windows()));
    }
  }
  // The backoff table's CSMA variant is not part of the size×uplink grid —
  // warm it with the same batch so the table section below replays it from
  // the memo instead of re-executing it serially (its FIFO row already
  // dedups against the grid).
  grid.push_back(fleet_scenario(16, mid, session.windows(), net::BackoffPolicy::kCsma));
  session.prefetch(grid);

  trace::TablePrinter t{{"Hubs", "Uplink", "Net J", "Wait mean (ms)", "Wait p99 (ms)",
                         "Util", "Retries", "Drops"}};
  bool monotone = true;

  for (int n : sizes) {
    double prev_net_j = -1.0;
    sim::Duration prev_wait = sim::Duration::zero();
    for (const auto& uplink : kUplinks) {
      const auto r = session.run(fleet_scenario(n, uplink, session.windows()));
      if (!r.ok()) {
        std::cerr << "fleet contention scenario invalid\n";
        return 1;
      }
      const double net_j = r.energy.joules(energy::Routine::kNetwork);
      const auto& c = r.energy.congestion();
      const auto spread = wait_spread(r);

      // Monotonicity across the shrinking uplink, per fleet size.
      if (net_j < prev_net_j - 1e-9 || c.airtime_wait < prev_wait) {
        std::cerr << "MONOTONICITY VIOLATION at hubs=" << n << " uplink=" << uplink.label
                  << ": net_j " << prev_net_j << " -> " << net_j << ", wait "
                  << prev_wait.to_ms() << " -> " << c.airtime_wait.to_ms() << " ms\n";
        monotone = false;
      }
      prev_net_j = net_j;
      prev_wait = c.airtime_wait;

      using TP = trace::TablePrinter;
      t.add_row({std::to_string(n), uplink.label, TP::num(net_j, 5),
                 TP::num(spread.mean_ms, 4), TP::num(spread.p99_ms, 4),
                 TP::num(c.utilization, 3), std::to_string(c.retries),
                 std::to_string(c.drops)});
    }
  }
  std::cout << t.render() << '\n';

  // FIFO vs CSMA on a mid-size fleet and the mid-tier uplink: the CSMA
  // variant re-senses with randomized backoff, so it trades extra retries
  // (and a little extra listen energy) for no admission-order queue.
  trace::TablePrinter bt{{"Backoff", "Net J", "Wait mean (ms)", "Wait p99 (ms)", "Retries",
                          "Drops"}};
  for (auto policy : {net::BackoffPolicy::kFifo, net::BackoffPolicy::kCsma}) {
    const auto r = session.run(fleet_scenario(16, mid, session.windows(), policy));
    if (!r.ok()) {
      std::cerr << "backoff scenario invalid\n";
      return 1;
    }
    const auto spread = wait_spread(r);
    const auto& c = r.energy.congestion();
    using TP = trace::TablePrinter;
    bt.add_row({policy == net::BackoffPolicy::kFifo ? "FIFO" : "CSMA",
                TP::num(r.energy.joules(energy::Routine::kNetwork), 5),
                TP::num(spread.mean_ms, 4), TP::num(spread.p99_ms, 4),
                std::to_string(c.retries), std::to_string(c.drops)});
  }
  std::cout << "16 hubs, 5 Mbit/s uplink, FIFO vs CSMA backoff:\n" << bt.render() << '\n';

  std::cout << "uplink-shrink monotonicity (net energy, airtime wait): "
            << (monotone ? "holds" : "VIOLATED") << '\n';

  // Every table row above must have been a memo hit: the prefetch produced
  // the grid (incl. the CSMA variant) exactly once — by executing it, or,
  // on a warm --cache-dir run, by loading it from the persistent tier —
  // and both sections replayed from the memo.
  const auto sweep_stats = session.sweep().stats();
  const std::size_t expected_hits = std::size(sizes) * std::size(kUplinks) + 2;
  const bool memo_reused =
      static_cast<std::size_t>(sweep_stats.executed + sweep_stats.disk_hits) ==
          grid.size() &&
      static_cast<std::size_t>(sweep_stats.cache_hits) == expected_hits;
  if (!memo_reused) {
    std::cerr << "MEMO REUSE VIOLATION: executed " << sweep_stats.executed
              << " + disk hits " << sweep_stats.disk_hits << " (want " << grid.size()
              << "), cache hits " << sweep_stats.cache_hits << " (want " << expected_hits
              << ")\n";
  }

  // --- Big contended fleet ----------------------------------------------
  // Window-quantum mode: the AP batches airtime requests per 10 ms
  // reservation window and arbitrates each batch at the boundary — the
  // coupling contract the shard barrier honours, so this fleet runs with
  // shards > 1 while every hub contends for one SharedAccessPoint, and the
  // result must stay byte-identical to the single-shard run.
  const int big_hubs = session.hubs_or(1024);
  const sim::Duration quantum = sim::Duration::ms(10);
  const int big_shards = 8;
  std::cout << "\nBig contended fleet: " << big_hubs
            << " hubs, 5 Mbit/s FIFO uplink, 10 ms reservation windows\n";
  const core::Scenario big_sc =
      fleet_scenario(big_hubs, mid, session.windows(), net::BackoffPolicy::kFifo, quantum);

  // The event-driven AP (no reservation window) still cannot shard: its
  // grant order at equal timestamps needs the global event sequence.
  {
    core::ScenarioRunner plain{fleet_scenario(big_hubs, mid, session.windows())};
    if (plain.effective_shards(core::ExecPolicy{.shards = big_shards}) != 1) {
      std::cerr << "event-driven shared AP failed to collapse to one shard\n";
      return 1;
    }
  }

  // The single-shard run goes through the session's sweep, so a warm
  // --cache-dir run serves it (and everything above) from the persistent
  // tier without executing a single scenario. The sharded re-run and the
  // byte-identity gate are meaningful only when the scenario actually
  // executed, so they ride the cold branch — a warm run already proved
  // identity when the entry was written.
  const std::uint64_t executed_before = session.sweep().stats().executed;
  const core::ScenarioResult big = session.run(big_sc);
  const bool big_cold = session.sweep().stats().executed > executed_before;

  const auto big_spread = wait_spread(big);
  using TP = trace::TablePrinter;

  bool identical = true;
  int shards_used = big_shards;
  if (big_cold) {
    // Sharded re-run driven directly (the sweep would serve it from the
    // memo the single-shard run just filled).
    const core::ScenarioResult big_sharded =
        core::run_scenario(big_sc, core::ExecPolicy{.shards = big_shards});
    identical = core::to_json_text(big) == core::to_json_text(big_sharded);
    shards_used = big_sharded.energy.kernel().shards;

    trace::TablePrinter gt{{"Shards", "Wait mean (ms)", "Wait p99 (ms)", "Util"}};
    gt.add_row({"1", TP::num(big_spread.mean_ms, 4), TP::num(big_spread.p99_ms, 4),
                TP::num(big.energy.congestion().utilization, 3)});
    gt.add_row({std::to_string(shards_used), TP::num(big_spread.mean_ms, 4),
                TP::num(big_spread.p99_ms, 4),
                TP::num(big_sharded.energy.congestion().utilization, 3)});
    std::cout << gt.render() << '\n';
    std::cout << "windowed shared-AP sharding (" << shards_used << " shards) JSON: "
              << (identical ? "byte-identical" : "DIVERGED") << '\n';
    if (shards_used <= 1) {
      std::cerr << "windowed shared AP did not shard (kernel.shards == " << shards_used
                << ")\n";
    }
  } else {
    std::cout << "big fleet served from the persistent result cache ("
              << big.energy.kernel().events_dispatched
              << " recorded events, wait p99 " << TP::num(big_spread.p99_ms, 4)
              << " ms); the sharded byte-identity gate ran on the cold run\n";
  }

  return monotone && identical && memo_reused && shards_used > 1 ? 0 : 1;
}
