// env::HubEnvironment — one hub's live environment state during a run: the
// up/down gate the sampling streams and executors consult, the crash RNG,
// the power source, and the availability counters that end up in HubResult.
//
// All transitions are driven by HubRuntime's per-hub supervisor coroutine:
//  * crash draws happen at window starts (a hit lands mid-window at a
//    uniformly drawn offset);
//  * power-source evaluation happens at window *boundaries* only — the
//    quantum that keeps sharded ExecPolicy runs byte-identical to
//    single-thread (shards already synchronise on window barriers).
//
// Determinism: the crash RNG derives from the hub seed xor a fixed salt
// (the NIC-backoff pattern), so attaching an environment never perturbs
// the hub's sensor/fault fork sequence.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "env/environment.h"
#include "env/fault_profile.h"
#include "env/power_source.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace iotsim::env {

/// Per-hub availability outcome of a run (the environment-layer counters of
/// HubResult). Default-constructed ⇒ no environment attached: always up.
struct AvailabilityStats {
  bool modeled = false;        ///< an EnvironmentConfig was attached
  bool power_limited = false;  ///< the power source is finite
  std::uint64_t reboots = 0;
  std::uint64_t windows_lost = 0;  ///< windows skipped (crash or outage)
  std::uint64_t samples_lost_faults = 0;  ///< all retries failed, sample lost
  std::uint64_t samples_lost_outage = 0;  ///< sample slots gated while down
  std::uint64_t samples_lost_crash = 0;   ///< wiped from MCU batch buffers
  sim::Duration downtime;                 ///< windows_lost × window
  double uptime_fraction = 1.0;
  double harvested_j = 0.0;  ///< total harvest stored over the run
  double billed_j = 0.0;     ///< total drawn from a finite source while up
  double stored_j = 0.0;     ///< charge remaining at the end (finite sources)
  /// harvested / billed for finite sources (0 when nothing was billed);
  /// >= 1 means the hub operated energy-neutrally over the run.
  [[nodiscard]] double energy_neutral_margin() const {
    return billed_j > 0.0 ? harvested_j / billed_j : 0.0;
  }
};

class HubEnvironment {
 public:
  HubEnvironment(const EnvironmentConfig& cfg, std::uint64_t hub_seed, int windows,
                 sim::Duration window);

  [[nodiscard]] const EnvironmentConfig& config() const { return cfg_; }
  /// True when the environment needs the supervisor coroutine (crash model
  /// active or finite power). A pure fault-profile environment runs without
  /// one — and therefore stays byte-identical to the legacy fault path.
  [[nodiscard]] bool needs_supervisor() const;

  /// True when the power source can deplete (battery/harvesting): the
  /// supervisor only flushes and reads the ledger for such hubs.
  [[nodiscard]] bool power_limited() const { return power_->finite(); }
  /// True when window `w` was (or will be) skipped: outage windows are
  /// marked at their start, crash windows at the moment the crash hits —
  /// always before the executors' end-of-window reads.
  [[nodiscard]] bool window_lost(int w) const;

  /// Crash draw at the start of window `w` (supervisor only). Consumes the
  /// crash RNG deterministically; a hit returns the offset into the window
  /// at which the crash lands.
  [[nodiscard]] std::optional<sim::Duration> crash_at(int w);
  /// Applies a crash inside window `w`; `buffered_samples` is the batched
  /// sample count wiped from MCU RAM.
  void apply_crash(int w, std::uint64_t buffered_samples);
  /// Power/reboot bookkeeping at the end of window `w` (supervisor only):
  /// bills `consumed_j` to the power source when the window was live,
  /// accrues harvest, and decides the gate for window w+1.
  void end_of_window(int w, sim::SimTime begin, sim::SimTime end, double consumed_j);

  void note_sample_lost_outage() { ++stats_.samples_lost_outage; }
  void note_sample_lost_fault() { ++stats_.samples_lost_faults; }

  /// Final per-hub availability snapshot (after the sim drains).
  [[nodiscard]] AvailabilityStats availability() const;

 private:
  void mark_lost(int w);

  EnvironmentConfig cfg_;
  int windows_;
  sim::Duration window_;
  sim::Rng crash_rng_;
  std::unique_ptr<PowerSource> power_;
  std::vector<char> lost_;  // per-window lost flags
  bool up_ = true;
  bool outage_ = false;          // down because the source depleted
  int down_until_window_ = 0;    // crash/reboot: first window allowed up again
  AvailabilityStats stats_;
};

}  // namespace iotsim::env
