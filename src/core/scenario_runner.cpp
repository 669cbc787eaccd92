#include "core/scenario_runner.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "check/check.h"
#include "core/hub_runtime.h"
#include "core/thread_pool.h"
#include "energy/energy_accountant.h"
#include "net/medium.h"
#include "net/shared_access_point.h"
#include "sim/arena.h"
#include "trace/power_trace.h"

namespace iotsim::core {

namespace {

HubRuntime::Config hub_config(const Scenario& scenario, const HubView& hv, net::Medium* medium,
                              sim::Arena* arena) {
  HubRuntime::Config cfg;
  cfg.name = hv.name;
  cfg.component_scope = hv.component_scope;
  cfg.spec = *hv.spec;
  cfg.app_ids = *hv.app_ids;
  cfg.world = *hv.world;
  cfg.scheme = scenario.scheme;
  cfg.windows = scenario.windows;
  cfg.batch_flushes_per_window = scenario.batch_flushes_per_window;
  cfg.mcu_speed_factor = scenario.mcu_speed_factor;
  cfg.seed = hv.seed;
  cfg.hub_index = hv.index;
  cfg.medium = medium;
  cfg.arena = arena;
  if (hv.environment != nullptr) cfg.env = *hv.environment;
  return cfg;
}

/// One hub to harvest, paired with the ledger of the kernel it ran in.
struct HarvestEntry {
  const HubRuntime* hub;
  const energy::EnergyAccountant* acct;
};

/// Adds one hub's availability section to a fleet roll-up; hubs without
/// an environment model contribute nothing.
void accumulate(energy::AvailabilitySummary& a, const env::AvailabilityStats& st) {
  if (!st.modeled) return;
  a.modeled = true;
  ++a.hubs_modeled;
  a.reboots += st.reboots;
  a.windows_lost += st.windows_lost;
  a.samples_lost_faults += st.samples_lost_faults;
  a.samples_lost_outage += st.samples_lost_outage;
  a.samples_lost_crash += st.samples_lost_crash;
  a.downtime += st.downtime;
  a.harvested_j += st.harvested_j;
  a.billed_j += st.billed_j;
}

/// Fleet availability roll-up straight from the runtimes, in hub order —
/// the totals harvest_fleet later re-derives from the HubResult sections
/// and checks against (the environment-layer reassembly tripwire).
energy::AvailabilitySummary availability_summary(const std::vector<HarvestEntry>& entries) {
  energy::AvailabilitySummary a;
  for (const HarvestEntry& e : entries) accumulate(a, e.hub->availability());
  return a;
}

/// The fleet-shape half of result assembly: per-hub harvest in hub order,
/// reassembly tripwires against the fleet totals already placed in
/// `result.energy`, and the legacy flat-field mirror / fleet QoS summary.
void harvest_fleet(ScenarioResult& result, const Scenario& scenario,
                   const std::vector<HarvestEntry>& entries) {
  result.qos_met = true;
  double hub_joules_sum = 0.0;
  net::AirtimeStats hub_stats_sum;
  energy::AvailabilitySummary hub_avail_sum;
  for (const HarvestEntry& e : entries) {
    HubResult hr = e.hub->harvest(*e.acct, result.span);
    hub_joules_sum += hr.energy.total_joules();
    hub_stats_sum.airtime_wait += hr.airtime_wait;
    hub_stats_sum.grants += hr.airtime_grants;
    hub_stats_sum.retries += hr.net_retries;
    hub_stats_sum.drops += hr.net_drops;
    accumulate(hub_avail_sum, hr.availability);
    result.interrupts_raised += hr.interrupts_raised;
    result.cpu_wakeups += hr.cpu_wakeups;
    result.sensor_read_errors += hr.sensor_read_errors;
    result.qos_met = result.qos_met && hr.qos_met;
    result.hubs.push_back(std::move(hr));
  }
  // Per-hub contention stats partition the medium's attachment list, so
  // their sums must reassemble the fleet totals exactly — the tripwire for
  // a NIC attached to the wrong medium or harvested twice.
  {
    const energy::CongestionSummary& fleet = result.energy.congestion();
    IOTSIM_CHECK_EQ(hub_stats_sum.grants, fleet.grants,
                    "per-hub airtime grants do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_stats_sum.retries, fleet.retries,
                    "per-hub net retries do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_stats_sum.drops, fleet.drops,
                    "per-hub net drops do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_stats_sum.airtime_wait.count_ns(), fleet.airtime_wait.count_ns(),
                    "per-hub airtime wait does not reassemble the fleet total");
  }
  // Per-hub availability stats were rolled up from the runtimes before
  // harvesting; the HubResult sections must re-derive the same fleet totals
  // — the tripwire for a hub harvested twice, skipped, or out of order.
  {
    const energy::AvailabilitySummary& fleet = result.energy.availability();
    IOTSIM_CHECK_EQ(hub_avail_sum.hubs_modeled, fleet.hubs_modeled,
                    "per-hub availability sections do not reassemble the fleet roll-up");
    IOTSIM_CHECK_EQ(hub_avail_sum.reboots, fleet.reboots,
                    "per-hub reboot counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.windows_lost, fleet.windows_lost,
                    "per-hub lost-window counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.samples_lost_faults, fleet.samples_lost_faults,
                    "per-hub fault-loss counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.samples_lost_outage, fleet.samples_lost_outage,
                    "per-hub outage-loss counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.samples_lost_crash, fleet.samples_lost_crash,
                    "per-hub crash-loss counts do not reassemble the fleet total");
    IOTSIM_CHECK_EQ(hub_avail_sum.downtime.count_ns(), fleet.downtime.count_ns(),
                    "per-hub outage time does not reassemble the fleet total");
    const double etol = 1e-9 * (std::abs(fleet.harvested_j + fleet.billed_j) > 1.0
                                    ? std::abs(fleet.harvested_j + fleet.billed_j)
                                    : 1.0);
    IOTSIM_CHECK_LE(std::abs(hub_avail_sum.harvested_j - fleet.harvested_j), etol,
                    "per-hub harvested energy does not reassemble the fleet total");
    IOTSIM_CHECK_LE(std::abs(hub_avail_sum.billed_j - fleet.billed_j), etol,
                    "per-hub billed energy does not reassemble the fleet total");
  }
  // Fleet conservation: the hub-scoped slices partition the ledger(s), so
  // their totals must reassemble the fleet total exactly (modulo
  // summation-order rounding). The tripwire for scope-prefix bugs.
  {
    const double fleet = result.energy.total_joules();
    const double tol = 1e-9 * (std::abs(fleet) > 1.0 ? std::abs(fleet) : 1.0);
    IOTSIM_CHECK_LE(std::abs(fleet - hub_joules_sum), tol,
                    "per-hub energy (%.12g J over %zu hubs) does not reassemble fleet total "
                    "(%.12g J)",
                    hub_joules_sum, result.hubs.size(), fleet);
  }

  if (!scenario.multi_hub()) {
    // Legacy single-hub view: the flat fields mirror the only hub.
    const HubResult& only = result.hubs.front();
    result.apps = only.apps;
    result.plan = only.plan;
    result.notes = only.notes;
    result.qos_summary = only.qos_summary;
  } else {
    // Fleet: per-app sections live per hub; the flat summary names hubs.
    for (const HubResult& hr : result.hubs) {
      if (hr.qos_summary.empty()) continue;
      std::string block = hr.qos_summary;
      // Indent each app line under its hub heading.
      result.qos_summary += hr.name + ":\n";
      std::size_t pos = 0;
      while (pos < block.size()) {
        const std::size_t eol = block.find('\n', pos);
        const std::size_t end = eol == std::string::npos ? block.size() : eol;
        result.qos_summary += "  " + block.substr(pos, end - pos) + "\n";
        pos = end + 1;
      }
    }
  }
}

/// The k-th window boundary, saturating instead of overflowing.
sim::SimTime window_horizon(sim::Duration window, std::int64_t k) {
  const std::int64_t w = window.count_ns();
  if (w >= std::numeric_limits<std::int64_t>::max() / k) return sim::SimTime::infinite();
  return sim::SimTime::from_ns(w * k);
}

/// Whether hubs couple at equal timestamps: through an event-driven
/// (FIFO/CSMA, no reservation window) access point, whose grant order at
/// equal timestamps depends on the global event sequence, or through one
/// power trace integrating the whole fleet. No partition of the fleet can
/// reproduce either, so such a scenario runs as one kernel on one shard.
bool couples_at_equal_times(const Scenario& scenario) {
  return (scenario.network && !scenario.network->windowed()) || scenario.record_power_trace;
}

/// Hubs per kernel. A lockstep fleet visits every hub of a kernel at each
/// sample instant, so a kernel this small keeps its hubs' state (coroutine
/// frames, generators, processor, ledger slice, window columns) in cache
/// between visits, where a shard-sized kernel evicts it. Picked by a sweep
/// over 4–64 hubs on both perfbench fleets (docs/architecture.md §20).
constexpr std::size_t kHubsPerKernel = 16;

}  // namespace

int ScenarioRunner::effective_shards(const ExecPolicy& policy) const {
  // A windowed AP batches requests per reservation window and arbitrates
  // them in a total order independent of registration interleaving — a
  // contract the shard barrier can honour, so those fleets keep their
  // shards; an equal-timestamp coupling cannot be split at all.
  if (couples_at_equal_times(scenario_)) return 1;
  const int fleet = std::max(1, static_cast<int>(scenario_.fleet_size()));
  return std::clamp(policy.shards, 1, fleet);
}

ScenarioResult ScenarioRunner::run() { return run(ExecPolicy{}); }

ScenarioResult ScenarioRunner::run(const ExecPolicy& policy) {
  if (auto errors = scenario_.validate(); !errors.empty()) {
    ScenarioResult invalid;
    invalid.scheme = scenario_.scheme;
    invalid.errors = std::move(errors);
    invalid.qos_met = false;
    return invalid;
  }
  return run_shards(effective_shards(policy));
}

ScenarioResult ScenarioRunner::run_shards(int shards) {
  // A shard is one worker thread driving a contiguous block of the fleet's
  // hubs as a sequence of kernels. Its one arena holds the coroutine frames
  // AND the hubs' runtime state of all its kernels (a 10k-hub fleet never
  // exists on one heap; per-kernel arenas would each strand part of a chunk).
  struct Worker {
    sim::Arena arena;
    std::size_t kernel_begin = 0;  ///< this worker's kernels: [begin, end)
    std::size_t kernel_end = 0;
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };
  // A kernel is a self-contained simulation of a contiguous block of at most
  // kHubsPerKernel hubs: its own simulator, energy ledger, medium and hubs.
  // Member order is destruction order in reverse: hubs die before their
  // medium and simulator.
  struct Kernel {
    Kernel(sim::Arena& arena, std::size_t begin, std::size_t end)
        : hub_begin{begin}, hub_end{end}, hubs{sim::ArenaAllocator<HubRuntime>{&arena}} {}
    std::size_t hub_begin;
    std::size_t hub_end;
    sim::Simulator sim;
    energy::EnergyAccountant acct;
    /// This kernel's own medium; null when the fleet shares an AP.
    std::unique_ptr<net::Medium> medium;
    std::deque<HubRuntime, sim::ArenaAllocator<HubRuntime>> hubs;
  };

  const FleetView fleet_view = scenario_.fleet();
  const std::size_t n = fleet_view.size();
  const auto s_count = static_cast<std::size_t>(shards);
  IOTSIM_CHECK_GE(n, s_count, "more shards than hubs after clamping");
  // Declared first so the AP outlives every hub attached to it, and the
  // arenas before the kernels, so hubs and frames die before their arena.
  std::unique_ptr<net::SharedAccessPoint> shared_ap;
  std::deque<Worker> workers(s_count);
  std::deque<Kernel> kernels;

  // Kernels partition each worker's hub block in hub order, so kernel order
  // is hub order. A scenario coupled at equal timestamps is one kernel
  // holding the whole fleet (effective_shards gives it one worker).
  const std::size_t kernel_hubs = couples_at_equal_times(scenario_) ? n : kHubsPerKernel;
  for (std::size_t s = 0; s < s_count; ++s) {
    Worker& w = workers[s];
    const std::size_t end = (s + 1) * n / s_count;
    w.kernel_begin = kernels.size();
    for (std::size_t h = s * n / s_count; h < end; h += kernel_hubs) {
      kernels.emplace_back(w.arena, h, std::min(h + kernel_hubs, end));
    }
    w.kernel_end = kernels.size();
  }

  // The medium every hub's NICs transmit through follows from the scenario:
  //   * no network — an IdealMedium per kernel (acquire grants without
  //     suspending, byte-identical to the pre-network model);
  //   * an event-driven FIFO/CSMA AP — built on the one kernel's simulator;
  //   * a windowed AP — one kernel-less AP for the whole fleet: request
  //     times come from each NIC's owner simulator, and the boundary step
  //     below arbitrates every reservation-window batch while the shard
  //     workers are parked.
  const bool windowed = scenario_.network && scenario_.network->windowed();
  if (windowed) {
    shared_ap = std::make_unique<net::SharedAccessPoint>(*scenario_.network);
    shared_ap->reserve_attachments(2 * n);
  } else if (scenario_.network) {
    IOTSIM_CHECK_EQ(kernels.size(), std::size_t{1},
                    "event-driven access point split across kernels");
    auto ap = std::make_unique<net::SharedAccessPoint>(kernels.front().sim, *scenario_.network);
    ap->reserve_attachments(2 * n);
    kernels.front().medium = std::move(ap);
  } else {
    for (Kernel& k : kernels) k.medium = std::make_unique<net::IdealMedium>();
  }

  // One power trace integrates the whole fleet, so it needs one kernel; it
  // is attached after every hub exists and before any starts, so the
  // integral covers every component.
  std::shared_ptr<trace::PowerTrace> power_trace;
  if (scenario_.record_power_trace) {
    IOTSIM_CHECK_EQ(kernels.size(), std::size_t{1}, "power trace split across kernels");
    power_trace = std::make_shared<trace::PowerTrace>();
  }

  // A windowed AP interleaves kernel execution in simulated-time lockstep:
  // in round k every worker drains each of its kernels to the k-th
  // reservation-window boundary, then all workers arrive at the barrier
  // before continuing. The completion step runs while every worker is
  // parked: it first arbitrates the AP's batched airtime requests at the
  // boundary (scheduling resume events into the kernels), then decides
  // termination for all workers at once, so nobody can leave a barrier
  // another worker still waits on. The done check reads each kernel's
  // pending-event count *after* arbitration: a kernel whose sim drained may
  // have just been handed a resume event. Without a windowed AP the kernels
  // never couple and each runs free to completion, one after another.
  const sim::Duration window =
      windowed ? scenario_.network->reservation_window : sim::Duration::max();
  std::atomic<bool> all_done{false};
  std::atomic<std::int64_t> round{1};
  net::SharedAccessPoint* ap = shared_ap.get();
  auto on_window_complete = [&workers, &kernels, &all_done, &round, ap, window]() noexcept {
    const std::int64_t k = round.fetch_add(1, std::memory_order_relaxed);
    ap->arbitrate_window(window_horizon(window, k));
    bool done = ap->pending_requests() == 0;
    for (const Worker& w : workers) {
      if (w.failed.load(std::memory_order_relaxed)) continue;
      for (std::size_t b = w.kernel_begin; b < w.kernel_end; ++b) {
        done = done && kernels[b].sim.stats().pending_events == 0;
      }
    }
    all_done.store(done, std::memory_order_relaxed);
  };
  std::barrier barrier{static_cast<std::ptrdiff_t>(s_count), on_window_complete};

  auto run_worker = [this, &workers, &kernels, &fleet_view, &power_trace, &barrier, &all_done,
                     ap, windowed, window](std::size_t s) {
    Worker& w = workers[s];
    bool failed = false;
    try {
      sim::ArenaScope frame_arena{w.arena};
      // Lazy materialization: each hub is built here, inside its worker,
      // from the count-compressed scenario — runtime state lands in the
      // worker's arena and construction parallelizes with the shard count.
      // Slot-addressed NIC attachment (hub_index) keeps the shared AP's
      // attachment table identical at every shard count no matter how
      // workers interleave. Without a windowed AP a kernel is built,
      // started and run to completion before the next one is built, so
      // only one kernel's window buffers are live per worker at a time.
      for (std::size_t b = w.kernel_begin; b < w.kernel_end; ++b) {
        Kernel& k = kernels[b];
        net::Medium* medium = ap != nullptr ? static_cast<net::Medium*>(ap) : k.medium.get();
        for (std::size_t h = k.hub_begin; h < k.hub_end; ++h) {
          k.hubs.emplace_back(k.sim, k.acct,
                              hub_config(scenario_, fleet_view.hub(h), medium, &w.arena));
        }
        if (power_trace) {
          for (auto& hub : k.hubs) hub.attach_trace(*power_trace);
        }
        for (auto& hub : k.hubs) hub.start();
        if (!windowed) k.sim.run();
      }
    } catch (...) {
      w.error = std::current_exception();
      failed = true;
    }
    if (windowed) {
      for (std::int64_t k = 1;; ++k) {
        if (!failed) {
          try {
            sim::ArenaScope frame_arena{w.arena};
            for (std::size_t b = w.kernel_begin; b < w.kernel_end; ++b) {
              kernels[b].sim.drain_until(window_horizon(window, k));
            }
          } catch (...) {
            w.error = std::current_exception();
            failed = true;
          }
        }
        w.failed.store(failed, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        if (all_done.load(std::memory_order_relaxed)) break;
      }
    }
    if (failed) return;
    try {
      for (std::size_t b = w.kernel_begin; b < w.kernel_end; ++b) {
        const sim::Simulator& sim = kernels[b].sim;
        sim.check_processes();
        IOTSIM_CHECK(sim.all_processes_done(), "kernel drained with live processes at t=%s",
                     sim.now().to_string().c_str());
      }
      // Power is NOT flushed here: each kernel's clock stops at its own
      // last event, but idle power must integrate to the fleet-wide end
      // time. The merge phase advances every kernel to the global span first.
    } catch (...) {
      w.error = std::current_exception();
    }
  };

  // One shard runs inline on the calling thread. More get exactly one
  // worker each: every shard job must run concurrently when windowed (they
  // meet at the barrier).
  if (s_count == 1) {
    run_worker(0);
  } else {
    ThreadPool pool{shards};
    for (std::size_t s = 0; s < s_count; ++s) pool.submit([&run_worker, s] { run_worker(s); });
    pool.wait_idle();
  }
  for (Worker& w : workers) {
    if (w.error) std::rethrow_exception(w.error);
  }

  // Merge in kernel order — which is hub order, because kernels hold
  // contiguous blocks. Every sum below therefore reproduces the one-kernel
  // iteration order (floats bit-identically; see
  // EnergyReport::from_accountants).
  ScenarioResult result;
  result.scheme = scenario_.scheme;
  sim::SimTime span_end = sim::SimTime::origin();
  for (const Kernel& k : kernels) span_end = std::max(span_end, k.sim.now());
  result.span = span_end - sim::SimTime::origin();

  // Close every hub's power segments at the fleet-wide end time: a kernel
  // whose last event fired early still idles (on every component's resting
  // state) until the fleet finishes, exactly as it would sharing one
  // clock. run_until on a drained simulator only advances the clock — no
  // events, no coroutine frames.
  for (Kernel& k : kernels) {
    k.sim.run_until(span_end);
    for (auto& hub : k.hubs) hub.flush_power();
    k.acct.check_conservation();
  }

  std::vector<const energy::EnergyAccountant*> ledgers;
  ledgers.reserve(kernels.size());
  for (const Kernel& k : kernels) ledgers.push_back(&k.acct);
  result.energy = energy::EnergyReport::from_accountants(ledgers, result.span);
  {
    // The fleet's media — the one shared AP, or one per kernel — summed in
    // kernel order. A network means exactly one medium; the ideal medium's
    // utilization is always zero.
    std::vector<const net::Medium*> media;
    if (shared_ap != nullptr) {
      media.push_back(shared_ap.get());
    } else {
      for (const Kernel& k : kernels) media.push_back(k.medium.get());
    }
    energy::CongestionSummary congestion;
    congestion.modeled = scenario_.network.has_value();
    congestion.utilization = congestion.modeled ? media.front()->utilization(span_end) : 0.0;
    for (const net::Medium* m : media) {
      const net::MediumStats net_stats = m->stats();
      congestion.airtime_wait += net_stats.totals.airtime_wait;
      congestion.grants += net_stats.totals.grants;
      congestion.retries += net_stats.totals.retries;
      congestion.drops += net_stats.totals.drops;
    }
    result.energy.set_congestion(congestion);
  }
  {
    energy::KernelSummary kernel;
    kernel.shards = static_cast<int>(s_count);
    for (const Kernel& k : kernels) {
      const sim::SimulatorStats kernel_stats = k.sim.stats();
      kernel.events_dispatched += kernel_stats.events_dispatched;
      kernel.peak_queue_depth = std::max(kernel.peak_queue_depth, kernel_stats.peak_queue_depth);
    }
    kernel.scheduler = std::string{sim::to_string(kernels.front().sim.stats().scheduler)};
    result.energy.set_kernel(std::move(kernel));
  }
  result.power_trace = power_trace;

  std::vector<HarvestEntry> entries;
  entries.reserve(n);
  for (const Kernel& k : kernels) {
    for (const HubRuntime& hub : k.hubs) entries.push_back(HarvestEntry{&hub, &k.acct});
  }
  result.energy.set_availability(availability_summary(entries));
  harvest_fleet(result, scenario_, entries);
  return result;
}

ScenarioResult run_scenario(Scenario scenario, ExecPolicy policy) {
  ScenarioRunner runner{std::move(scenario)};
  return runner.run(policy);
}

}  // namespace iotsim::core
