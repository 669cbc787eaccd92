// Per-hub operating environment: the world a hub runs in, beyond its own
// hardware — how its sensors fail, whether it crashes and reboots, and what
// power source feeds it. Pure configuration structs; the runtime behaviour
// lives in env::FaultProfile / env::PowerSource / env::HubEnvironment.
//
// NOTE: every field here participates in the sweep memo's content hash —
// when adding a field, extend scenario_key() in core/sweep.cpp as well.
// tests/core/test_scenario_key.cpp mutates every field one by one.
#pragma once

namespace iotsim::env {

/// How a sensor's §II-B Task-I availability check fails over time.
enum class FaultModel : unsigned char {
  /// Independent Bernoulli failures (no draw at all on a zero
  /// probability, the default of a hub without an environment).
  kIid = 0,
  /// Gilbert-Elliott two-state channel: long good stretches, correlated
  /// failure bursts. After the bounded retries all fail, the sample is lost.
  kGilbertElliott = 1,
  /// Aging hardware: the failure probability grows linearly with simulated
  /// time up to a cap. After the bounded retries all fail, the sample is
  /// lost.
  kDegrading = 2,
};

struct FaultProfileConfig {
  FaultModel model = FaultModel::kIid;
  /// kIid: per-check failure probability. kDegrading: the t=0 base rate.
  double fault_prob = 0.0;
  // --- Gilbert-Elliott ---
  double burst_enter_prob = 0.0;  ///< good → burst transition, per check
  double burst_exit_prob = 0.2;   ///< burst → good transition, per check
  double good_fault_prob = 0.0;   ///< per-check failure while good
  double burst_fault_prob = 0.9;  ///< per-check failure while bursting
  // --- Degrading ---
  double degrade_per_hour = 0.0;  ///< added to fault_prob per simulated hour
  double degrade_cap = 0.5;       ///< failure probability ceiling
};

/// Whole-hub crash/reboot cycles. A crash can hit anywhere inside a window;
/// batched/offloaded apps lose the samples buffered in MCU RAM (per-sample
/// apps already moved theirs to the CPU). The hub stays down through the
/// rest of the crash window plus `reboot_windows - 1` further windows.
struct CrashConfig {
  double crash_prob_per_window = 0.0;  ///< drawn at each window start while up
  int reboot_windows = 1;              ///< windows down per crash (>= 1)
};

enum class PowerModel : unsigned char {
  kMains = 0,      ///< unlimited wall power (the legacy assumption)
  kBattery = 1,    ///< finite battery drained online at window granularity
  kHarvesting = 2  ///< finite battery plus a deterministic harvesting trace
};

/// Deterministic square-wave harvesting trace: `peak_w` for the first
/// `duty` fraction of every `period_s` cycle (shifted by `phase_s`), zero
/// otherwise. period_s == 0 means constant peak_w. Closed-form integral —
/// no RNG, no wall clock — so sharded and single-thread runs agree exactly.
struct HarvestTrace {
  double peak_w = 0.0;
  double period_s = 0.0;
  double duty = 1.0;
  double phase_s = 0.0;
};

struct PowerConfig {
  PowerModel model = PowerModel::kMains;
  double battery_capacity_wh = 0.0;    ///< required finite > 0 for kBattery/kHarvesting
  double battery_usable_fraction = 0.9;
  double initial_soc = 1.0;            ///< state of charge at t=0, in (0, 1]
  /// After a depletion outage the hub stays suspended until the state of
  /// charge recovers to this threshold (hysteresis against flapping).
  double resume_soc = 0.1;
  HarvestTrace harvest;                ///< kHarvesting only
};

/// One hub's complete environment. Attach per hub via
/// core::HubInstance::environment or scenario-wide via
/// core::Scenario::environment. A hub without one has mains power, never
/// crashes and its sensors never fail.
struct EnvironmentConfig {
  FaultProfileConfig faults;
  CrashConfig crash;
  PowerConfig power;
};

}  // namespace iotsim::env
