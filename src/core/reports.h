// Results of a scenario run, in the shapes the paper's figures need.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload_spec.h"
#include "core/offload_planner.h"
#include "core/qos.h"
#include "core/scenario.h"
#include "core/scheme.h"
#include "energy/energy_report.h"
#include "env/hub_environment.h"
#include "trace/power_trace.h"

namespace iotsim::core {

/// One app window's user-level outcome.
struct WindowRecord {
  int window = 0;
  sim::SimTime started;
  sim::SimTime completed;
  std::string summary;
  double metric = 0.0;
  bool event = false;
};

/// Per-app busy time on the app's critical path, split by routine — the
/// paper's Fig. 8 timing breakdown. Averaged per window.
struct BusyBreakdown {
  sim::Duration data_collection;
  sim::Duration interrupt;
  sim::Duration data_transfer;
  sim::Duration computation;

  [[nodiscard]] sim::Duration total() const {
    return data_collection + interrupt + data_transfer + computation;
  }
};

struct AppResult {
  std::vector<WindowRecord> records;
  AppQos qos;
  BusyBreakdown busy_per_window;  // averaged over windows
  AppMode mode = AppMode::kPerSample;
  std::size_t heap_peak_bytes = 0;
  std::size_t stack_peak_bytes = 0;
  std::uint64_t instructions = 0;
};

/// One hub's slice of a scenario run: the per-hub counterpart of the
/// fleet-level fields on ScenarioResult. A single-hub run produces exactly
/// one of these.
struct HubResult {
  std::string name;  // "hub0", "hub1", …
  /// This hub's components only (Σ routine == ∫P dt holds per hub).
  energy::EnergyReport energy;
  std::map<apps::AppId, AppResult> apps;
  OffloadPlan plan;
  std::map<apps::AppId, std::string> notes;
  std::uint64_t interrupts_raised = 0;
  std::uint64_t cpu_wakeups = 0;
  std::uint64_t sensor_read_errors = 0;
  /// Environment-layer outcome: uptime, reboots, sample losses, harvest and
  /// billing (default "always up" when no environment was attached).
  env::AvailabilityStats availability;
  /// Shared-uplink contention, summed over this hub's NICs (all zero when
  /// the scenario transmits into the ideal medium).
  sim::Duration airtime_wait;
  std::uint64_t airtime_grants = 0;
  std::uint64_t net_retries = 0;
  std::uint64_t net_drops = 0;
  bool qos_met = true;
  std::string qos_summary;

  [[nodiscard]] double total_joules() const { return energy.total_joules(); }
};

struct ScenarioResult {
  Scheme scheme{};
  /// Non-empty ⇒ the scenario failed Scenario::validate() and never ran;
  /// every other field is default-initialised.
  std::vector<ScenarioError> errors;
  /// Fleet-level totals: every hub's components in one report.
  energy::EnergyReport energy;
  sim::Duration span;
  /// Whether the scenario ran as a fleet (Scenario::multi_hub()), even a
  /// one-hub one. Per-app results, offload plans, notes and QoS text live
  /// only in `hubs[i]`; this flag tells the JSON export whether to also
  /// show the only hub's sections at the top level (single-hub runs do).
  bool fleet = false;
  /// One section per simulated hub, in hub order (size ≥ 1 whenever the
  /// scenario ran).
  std::vector<HubResult> hubs;
  std::uint64_t interrupts_raised = 0;
  std::uint64_t cpu_wakeups = 0;
  /// §II-B Task I availability-check failures (retried by the driver).
  std::uint64_t sensor_read_errors = 0;
  bool qos_met = true;
  /// Present when Scenario::record_power_trace was set.
  std::shared_ptr<trace::PowerTrace> power_trace;

  /// True when the scenario validated and actually ran.
  [[nodiscard]] bool ok() const { return errors.empty(); }

  /// Every hub's QoS text under its name, each app line indented.
  [[nodiscard]] std::string qos_summary() const;

  [[nodiscard]] double total_joules() const { return energy.total_joules(); }
  /// Energy per simulated window second — the figure-normalisation basis.
  [[nodiscard]] double average_watts() const { return energy.average_watts(); }
};

}  // namespace iotsim::core
