// Scenario description: which apps, which scheme, how long, which world.
//
// Two ways to construct one:
//  * the raw aggregate (kept for back-compat): fill the fields directly;
//  * the fluent builder (preferred):
//      auto sc = Scenario::builder()
//                    .apps({apps::AppId::kA2StepCounter})
//                    .scheme(Scheme::kCom)
//                    .windows(10)
//                    .seed(7)
//                    .build();
// Either way, validate() reports structured errors instead of letting a
// nonsense scenario run; run_scenario() calls it and surfaces failures in
// ScenarioResult::errors.
//
// NOTE: every field of Scenario (and of the HubSpec / WorldConfig /
// HubInstance structs it embeds) participates in the sweep memo's content
// hash — when adding a field here, extend scenario_key() in core/sweep.cpp
// as well. tests/core/test_scenario_key.cpp mutates every field one by one
// and will catch an omission.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/workload_spec.h"
#include "core/scheme.h"
#include "env/environment.h"
#include "hw/boards.h"
#include "net/config.h"
#include "sensors/sensor_catalog.h"

namespace iotsim::core {

/// One structured validation failure: which field is wrong and why.
struct ScenarioError {
  std::string field;    // e.g. "windows"
  std::string message;  // e.g. "must be positive (got -3)"
};

[[nodiscard]] std::string to_string(const ScenarioError& e);

class ScenarioBuilder;

/// One hub template of a fleet scenario: a hardware spec, the apps it runs,
/// an optional world override, and how many identical copies to stamp out.
/// Each stamped copy becomes its own core::HubRuntime with an independent
/// RNG stream derived from Scenario::seed.
struct HubInstance {
  hw::HubSpec hub = hw::default_hub_spec();
  std::vector<apps::AppId> app_ids;
  /// Per-hub world override; unset ⇒ the scenario-level world applies.
  std::optional<sensors::WorldConfig> world;
  /// Per-hub environment override (fault profile / crash model / power
  /// source); unset ⇒ the scenario-level environment (or none) applies.
  std::optional<env::EnvironmentConfig> environment;
  /// Identical hubs stamped from this template (each gets a derived seed).
  int count = 1;
};

/// One concrete hub of a scenario, computed on demand from the
/// count-compressed `hubs` list — or the legacy single-hub desugaring when
/// that list is empty. Pointers reference the Scenario the view was built
/// from; nothing is materialized per hub until a HubRuntime is constructed
/// from this view inside its shard worker.
struct HubView {
  /// Flat index into the count-expanded fleet.
  std::size_t index = 0;
  std::string name;  // "hub<flat index>"
  /// Accountant component scope: "" on the legacy path (components keep the
  /// historical flat names), the hub name in fleet mode ("hub0/cpu", …).
  std::string component_scope;
  const hw::HubSpec* spec = nullptr;
  const std::vector<apps::AppId>* app_ids = nullptr;
  const sensors::WorldConfig* world = nullptr;
  /// This hub's environment (per-hub override, else the scenario default);
  /// nullptr ⇒ the legacy always-on, mains-powered, iid-fault world.
  const env::EnvironmentConfig* environment = nullptr;
  /// Per-hub RNG stream: Scenario::seed for hub 0 (keeping single-hub runs
  /// numerically identical to the pre-fleet runner), an xor-derived stream
  /// for every further hub.
  std::uint64_t seed = 0;
};

/// The seed HubView::seed carries for hub `index` of a scenario seeded
/// with `base`: `base` itself for index 0, `base ^ (index · golden-ratio)`
/// beyond — distinct streams per hub, identity for the back-compat hub.
[[nodiscard]] std::uint64_t hub_seed(std::uint64_t base, std::size_t index);

struct Scenario;

/// Random access into the count-expanded fleet without expanding it: an
/// index→HubView map over the count-compressed HubInstance templates (one
/// prefix-sum table, O(#templates) to build, O(log #templates) per lookup).
/// A 10k-hub fleet described by three templates costs three table entries —
/// hubs are materialized one at a time inside their shard worker, never as a
/// fleet-sized vector. References the Scenario; keep it alive.
class FleetView {
 public:
  explicit FleetView(const Scenario& sc);

  /// Count-expanded fleet size (1 on the legacy single-hub path).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The concrete hub at flat index `i` (spec/world/env pointers reference
  /// the Scenario; name/seed/scope are derived on the fly).
  [[nodiscard]] HubView hub(std::size_t i) const;

 private:
  const Scenario* sc_;
  /// first_[t] = flat index of template t's first hub; one past-the-end
  /// sentinel. Empty on the legacy single-hub path.
  std::vector<std::size_t> first_;
  std::size_t size_ = 0;
};

struct Scenario {
  std::vector<apps::AppId> app_ids;
  Scheme scheme = Scheme::kBaseline;
  /// Number of QoS windows to simulate (sampling runs windows × 1 s).
  int windows = 5;
  std::uint64_t seed = 42;
  sensors::WorldConfig world;
  hw::HubSpec hub = hw::default_hub_spec();
  /// Attach a power trace (needed for Fig. 5-style timelines; off by
  /// default to keep long sweeps lean).
  bool record_power_trace = false;

  /// kBatched: MCU→CPU flushes per window. 1 = the paper's Batching (one
  /// interrupt per window); large values converge back towards Baseline —
  /// the batch-size ablation knob.
  int batch_flushes_per_window = 1;
  /// Scales every app's MCU kernel time (COM sensitivity ablation:
  /// >1 = slower MCU, <1 = faster).
  double mcu_speed_factor = 1.0;

  /// Shared uplink: when set, every hub's NICs contend for one
  /// net::SharedAccessPoint of this configuration; unset ⇒ net::IdealMedium
  /// (infinite capacity, byte-identical to the pre-network-layer model).
  std::optional<net::ApConfig> network;

  /// Scenario-level environment default: fault profile, crash/reboot model
  /// and power source applied to every hub that has no per-hub override.
  /// Unset ⇒ the always-on world: hubs on mains, sensors that never fail.
  std::optional<env::EnvironmentConfig> environment;

  /// Fleet mode: when non-empty, the scenario simulates this list of hubs
  /// (count-expanded) instead of the single legacy hub above, and the
  /// top-level `app_ids`/`hub` fields must stay empty/default. Hubs run in
  /// kernels of up to 16 consecutive hubs (the whole fleet when hubs couple
  /// at equal timestamps), each kernel with its own Simulator clock and
  /// EnergyAccountant; components are scoped per hub ("hub0/cpu", "hub1/mcu", …).
  std::vector<HubInstance> hubs;

  /// True when the explicit hub list is in use (fleet mode).
  [[nodiscard]] bool multi_hub() const { return !hubs.empty(); }
  /// Number of concrete hubs this scenario simulates (count-expanded;
  /// 1 on the legacy single-hub path).
  [[nodiscard]] std::size_t fleet_size() const;
  /// Lazy per-hub access the runner (and tests/reports) build from: the
  /// `hubs` list viewed count-expanded, or the legacy fields desugared into
  /// one unscoped hub — no per-hub allocation happens here. The view (and
  /// the pointers inside each HubView) reference *this — keep the Scenario
  /// alive.
  [[nodiscard]] FleetView fleet() const { return FleetView{*this}; }

  /// Entry point of the fluent construction API.
  [[nodiscard]] static ScenarioBuilder builder();

  /// Checks the scenario for configuration errors (empty app list,
  /// non-positive windows, per-hub issues in fleet mode, …). Empty result ⇒
  /// the scenario is runnable.
  [[nodiscard]] std::vector<ScenarioError> validate() const;
};

/// Fluent construction of a Scenario. Every setter returns *this, so calls
/// chain; build() hands back the configured value (validation stays a
/// separate, explicit step — run_scenario() always performs it).
class ScenarioBuilder {
 public:
  ScenarioBuilder& apps(std::vector<apps::AppId> ids) {
    sc_.app_ids = std::move(ids);
    return *this;
  }
  ScenarioBuilder& scheme(Scheme s) {
    sc_.scheme = s;
    return *this;
  }
  ScenarioBuilder& windows(int n) {
    sc_.windows = n;
    return *this;
  }
  ScenarioBuilder& seed(std::uint64_t s) {
    sc_.seed = s;
    return *this;
  }
  ScenarioBuilder& world(sensors::WorldConfig w) {
    sc_.world = std::move(w);
    return *this;
  }
  ScenarioBuilder& hub(hw::HubSpec h) {
    sc_.hub = std::move(h);
    return *this;
  }
  /// Appends one hub template to the fleet (switches the scenario into
  /// fleet mode; see Scenario::hubs).
  ScenarioBuilder& add_hub(HubInstance inst) {
    sc_.hubs.push_back(std::move(inst));
    return *this;
  }
  /// Shorthand: `count` hubs of spec `h` each running `ids`.
  ScenarioBuilder& add_hub(hw::HubSpec h, std::vector<apps::AppId> ids, int count = 1) {
    HubInstance inst;
    inst.hub = std::move(h);
    inst.app_ids = std::move(ids);
    inst.count = count;
    sc_.hubs.push_back(std::move(inst));
    return *this;
  }
  /// Routes every hub's NICs through a shared finite-bandwidth access point
  /// (see net::ApConfig). Without this call the fleet transmits into an
  /// ideal infinite-capacity medium.
  ScenarioBuilder& network(net::ApConfig cfg) {
    sc_.network = cfg;
    return *this;
  }
  /// Scenario-level environment default (see Scenario::environment).
  ScenarioBuilder& environment(env::EnvironmentConfig cfg) {
    sc_.environment = std::move(cfg);
    return *this;
  }
  /// Environment override for the most recently added hub template (fleet
  /// mode fluent shorthand; call directly after add_hub).
  ScenarioBuilder& hub_environment(env::EnvironmentConfig cfg) {
    sc_.hubs.back().environment = std::move(cfg);
    return *this;
  }
  ScenarioBuilder& record_power_trace(bool on = true) {
    sc_.record_power_trace = on;
    return *this;
  }
  ScenarioBuilder& batch_flushes_per_window(int flushes) {
    sc_.batch_flushes_per_window = flushes;
    return *this;
  }
  ScenarioBuilder& mcu_speed_factor(double factor) {
    sc_.mcu_speed_factor = factor;
    return *this;
  }

  [[nodiscard]] Scenario build() const { return sc_; }

 private:
  Scenario sc_;
};

inline ScenarioBuilder Scenario::builder() { return ScenarioBuilder{}; }

}  // namespace iotsim::core
