#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "check/check.h"

namespace iotsim::core {

std::string to_string(const ScenarioError& e) { return e.field + ": " + e.message; }

std::uint64_t hub_seed(std::uint64_t base, std::size_t index) {
  // Weyl-sequence xor: hub 0 keeps the scenario seed bit-for-bit (the
  // single-hub back-compat guarantee); every further hub gets a distinct,
  // well-spread stream.
  return base ^ (static_cast<std::uint64_t>(index) * 0x9E3779B97F4A7C15ull);
}

std::size_t Scenario::fleet_size() const {
  if (!multi_hub()) return 1;
  std::size_t n = 0;
  for (const auto& inst : hubs) n += inst.count > 0 ? static_cast<std::size_t>(inst.count) : 0;
  return n;
}

FleetView::FleetView(const Scenario& sc) : sc_{&sc} {
  if (!sc.multi_hub()) {
    size_ = 1;
    return;
  }
  // Prefix sums over the count-compressed templates: the only allocation a
  // fleet of any size pays before its hubs are built inside shard workers.
  first_.reserve(sc.hubs.size() + 1);
  first_.push_back(0);
  for (const auto& inst : sc.hubs) {
    const std::size_t count = inst.count > 0 ? static_cast<std::size_t>(inst.count) : 0;
    first_.push_back(first_.back() + count);
  }
  size_ = first_.back();
}

HubView FleetView::hub(std::size_t i) const {
  IOTSIM_CHECK_LT(i, size_, "FleetView: hub index out of range");
  const Scenario& sc = *sc_;
  const env::EnvironmentConfig* scenario_env = sc.environment ? &*sc.environment : nullptr;
  HubView view;
  view.index = i;
  view.name = "hub" + std::to_string(i);
  view.seed = hub_seed(sc.seed, i);
  if (!sc.multi_hub()) {
    // Legacy desugaring: one hub, unscoped components, the scenario's own
    // RNG seed — numerically identical to the pre-fleet runner.
    view.spec = &sc.hub;
    view.app_ids = &sc.app_ids;
    view.world = &sc.world;
    view.environment = scenario_env;
    return view;
  }
  // Template owning flat index i: the last entry of first_ that is <= i.
  const auto it = std::upper_bound(first_.begin(), first_.end(), i);
  const std::size_t t = static_cast<std::size_t>(it - first_.begin()) - 1;
  const HubInstance& inst = sc.hubs[t];
  view.component_scope = view.name;
  view.spec = &inst.hub;
  view.app_ids = &inst.app_ids;
  view.world = inst.world ? &*inst.world : &sc.world;
  view.environment = inst.environment ? &*inst.environment : scenario_env;
  return view;
}

namespace {

void validate_app_list(const std::vector<apps::AppId>& ids, const std::string& field,
                       std::vector<ScenarioError>& errors) {
  if (ids.empty()) {
    errors.push_back({field, "at least one app is required"});
    return;
  }
  std::set<apps::AppId> seen;
  for (apps::AppId id : ids) {
    if (!seen.insert(id).second) {
      errors.push_back({field, "duplicate app " + std::string{apps::code_of(id)} +
                                   " (each app may appear once)"});
    }
  }
}

// validate() runs once per scenario of a sweep, so these build a field's
// path (prefix + field) only for a value that fails.
void validate_fault_prob(double prob, const std::string& prefix, const char* field,
                         std::vector<ScenarioError>& errors) {
  if (prob < 0.0 || prob > 1.0 || !std::isfinite(prob)) {
    errors.push_back(
        {prefix + field, "must be a probability in [0, 1] (got " + std::to_string(prob) + ")"});
  }
}

void validate_positive_rate(double rate, const std::string& prefix, const char* field,
                            std::vector<ScenarioError>& errors) {
  if (!(rate > 0.0) || !std::isfinite(rate)) {
    errors.push_back(
        {prefix + field, "must be a positive finite rate (got " + std::to_string(rate) + ")"});
  }
}

void validate_world(const sensors::WorldConfig& w, const std::string& prefix,
                    std::vector<ScenarioError>& errors) {
  validate_fault_prob(w.sensor_fault_prob, prefix, "sensor_fault_prob", errors);
  validate_positive_rate(w.heart_bpm, prefix, "heart_bpm", errors);
  validate_fault_prob(w.heart_irregular_prob, prefix, "heart_irregular_prob", errors);
  validate_positive_rate(w.walking_cadence_hz, prefix, "walking_cadence_hz", errors);
}

void validate_environment(const env::EnvironmentConfig& e, const std::string& prefix,
                          std::vector<ScenarioError>& errors) {
  const auto& f = e.faults;
  validate_fault_prob(f.fault_prob, prefix, "faults.fault_prob", errors);
  validate_fault_prob(f.burst_enter_prob, prefix, "faults.burst_enter_prob", errors);
  validate_fault_prob(f.burst_exit_prob, prefix, "faults.burst_exit_prob", errors);
  validate_fault_prob(f.good_fault_prob, prefix, "faults.good_fault_prob", errors);
  validate_fault_prob(f.burst_fault_prob, prefix, "faults.burst_fault_prob", errors);
  validate_fault_prob(f.degrade_cap, prefix, "faults.degrade_cap", errors);
  if (f.degrade_per_hour < 0.0 || !std::isfinite(f.degrade_per_hour)) {
    errors.push_back({prefix + "faults.degrade_per_hour",
                      "must be a non-negative finite rate (got " +
                          std::to_string(f.degrade_per_hour) + ")"});
  }

  validate_fault_prob(e.crash.crash_prob_per_window, prefix, "crash.crash_prob_per_window", errors);
  if (e.crash.reboot_windows < 1) {
    errors.push_back({prefix + "crash.reboot_windows",
                      "must be >= 1 (got " + std::to_string(e.crash.reboot_windows) + ")"});
  }

  const auto& p = e.power;
  if (p.model != env::PowerModel::kMains) {
    if (!(p.battery_capacity_wh > 0.0) || !std::isfinite(p.battery_capacity_wh)) {
      errors.push_back({prefix + "power.battery_capacity_wh",
                        "must be a positive finite capacity (got " +
                            std::to_string(p.battery_capacity_wh) + ")"});
    }
    if (!(p.battery_usable_fraction > 0.0) || p.battery_usable_fraction > 1.0) {
      errors.push_back({prefix + "power.battery_usable_fraction",
                        "must be in (0, 1] (got " +
                            std::to_string(p.battery_usable_fraction) + ")"});
    }
    if (!(p.initial_soc > 0.0) || p.initial_soc > 1.0) {
      errors.push_back({prefix + "power.initial_soc",
                        "must be in (0, 1] (got " + std::to_string(p.initial_soc) + ")"});
    }
    validate_fault_prob(p.resume_soc, prefix, "power.resume_soc", errors);
  }
  const auto& h = p.harvest;
  if (h.peak_w < 0.0 || !std::isfinite(h.peak_w)) {
    errors.push_back({prefix + "power.harvest.peak_w",
                      "must be a non-negative finite power (got " +
                          std::to_string(h.peak_w) + ")"});
  }
  if (h.period_s < 0.0 || !std::isfinite(h.period_s)) {
    errors.push_back({prefix + "power.harvest.period_s",
                      "must be a non-negative finite period (got " +
                          std::to_string(h.period_s) + ")"});
  }
  if (h.duty < 0.0 || h.duty > 1.0 || !std::isfinite(h.duty)) {
    errors.push_back({prefix + "power.harvest.duty",
                      "must be in [0, 1] (got " + std::to_string(h.duty) + ")"});
  }
  if (!std::isfinite(h.phase_s)) {
    errors.push_back({prefix + "power.harvest.phase_s", "must be finite"});
  }
}

}  // namespace

std::vector<ScenarioError> Scenario::validate() const {
  std::vector<ScenarioError> errors;

  if (multi_hub()) {
    if (!app_ids.empty()) {
      errors.push_back({"app_ids",
                        "top-level app_ids and the hubs[] fleet are mutually exclusive "
                        "(list apps on the hub instances instead)"});
    }
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      const auto& inst = hubs[i];
      const std::string prefix = "hubs[" + std::to_string(i) + "].";
      validate_app_list(inst.app_ids, prefix + "app_ids", errors);
      if (inst.count < 1) {
        errors.push_back(
            {prefix + "count", "must be >= 1 (got " + std::to_string(inst.count) + ")"});
      }
      if (inst.world) validate_world(*inst.world, prefix + "world.", errors);
      if (inst.environment) {
        validate_environment(*inst.environment, prefix + "environment.", errors);
      }
    }
  } else {
    validate_app_list(app_ids, "app_ids", errors);
  }

  if (windows <= 0) {
    errors.push_back({"windows", "must be positive (got " + std::to_string(windows) + ")"});
  }
  if (batch_flushes_per_window < 1) {
    errors.push_back({"batch_flushes_per_window",
                      "must be >= 1 (got " + std::to_string(batch_flushes_per_window) + ")"});
  }
  if (!(mcu_speed_factor > 0.0) || !std::isfinite(mcu_speed_factor)) {
    errors.push_back({"mcu_speed_factor",
                      "must be a positive finite factor (got " +
                          std::to_string(mcu_speed_factor) + ")"});
  }
  validate_world(world, "world.", errors);
  if (environment) validate_environment(*environment, "environment.", errors);

  if (network) {
    if (!(network->bytes_per_second > 0.0) || !std::isfinite(network->bytes_per_second)) {
      errors.push_back({"network.bytes_per_second",
                        "must be a positive finite bandwidth (got " +
                            std::to_string(network->bytes_per_second) + ")"});
    }
    if (network->queue_depth < 1) {
      errors.push_back({"network.queue_depth",
                        "must be >= 1 (got " + std::to_string(network->queue_depth) + ")"});
    }
    if (network->backoff_slot <= sim::Duration::zero()) {
      errors.push_back({"network.backoff_slot",
                        "must be positive (got " + network->backoff_slot.to_string() + ")"});
    }
    if (network->max_backoff_exponent < 1 || network->max_backoff_exponent > 16) {
      errors.push_back({"network.max_backoff_exponent",
                        "must be in [1, 16] (got " +
                            std::to_string(network->max_backoff_exponent) + ")"});
    }
    if (network->reservation_window.is_negative()) {
      errors.push_back({"network.reservation_window",
                        "must be >= 0 (got " + network->reservation_window.to_string() + ")"});
    }
    if (network->reservation_window > sim::Duration::zero() &&
        network->backoff != net::BackoffPolicy::kFifo) {
      errors.push_back({"network.reservation_window",
                        "window-quantum arbitration requires the FIFO backoff policy"});
    }
  }

  return errors;
}

}  // namespace iotsim::core
