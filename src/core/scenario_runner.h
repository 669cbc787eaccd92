// Assembles a Scenario into a live simulation and runs it to completion.
//
// The per-hub machinery (hub hardware, sensors, streams, executors, offload
// plan, QoS) lives in core::HubRuntime; the runner's job is the fleet shape:
// resolve the scenario's hub list (one legacy hub or a count-expanded
// HubInstance fleet), drive every HubRuntime, and collect the fleet-level
// plus per-hub sections of the ScenarioResult.
//
// Execution shape is a separate axis (core/exec_policy.h), and there is one
// execution path: run(policy) splits the fleet into contiguous hub blocks,
// one worker thread and arena per shard, and each shard's block further
// into kernels of a few hubs, each with its own Simulator, energy ledger
// and medium. A worker runs its kernels one after another, so a kernel's
// hubs stay in cache across the sample instants they share. Results merge
// in kernel order, which is hub order, so the output is byte-identical at
// any shard count. The single-kernel run is simply one shard, executed
// inline on the calling thread; more shards get one worker thread each.
// Hubs are materialized lazily from Scenario::fleet() inside their worker —
// each hub's runtime state lives in its shard's arena, so a 10k-hub fleet
// never exists on one heap at once and construction itself parallelizes
// with the shard count. Hubs coupled at equal timestamps (an event-driven
// shared access point, or one power trace) run as one kernel on one shard.
//
// Fleets coupled through a windowed shared access point
// (ApConfig::reservation_window > 0) run in lockstep at any shard count:
// every worker drains each of its kernels to the next reservation-window
// boundary, then the barrier's completion step arbitrates the batched
// airtime requests on the one kernel-less AP. The barrier window is the
// reservation window; it follows from the scenario, not from the policy.
#pragma once

#include "core/exec_policy.h"
#include "core/reports.h"
#include "core/scenario.h"
// Part of this header's established surface: consumers of the runner build
// hubs and simulators of their own (benches, examples) and have always
// reached those types through this include.
#include "hw/iot_hub.h"
#include "sim/simulator.h"

namespace iotsim::core {

class ScenarioRunner {
 public:
  explicit ScenarioRunner(Scenario scenario) : scenario_{std::move(scenario)} {}

  /// Runs the whole scenario as one shard on the calling thread; every call
  /// builds a fresh simulation. If the scenario fails Scenario::validate(),
  /// nothing runs and the returned result carries the errors.
  [[nodiscard]] ScenarioResult run();

  /// Runs under `policy`, sharding the fleet when the scenario permits it.
  /// Results are byte-identical to run() for every policy.
  [[nodiscard]] ScenarioResult run(const ExecPolicy& policy);

  /// The shard count run(policy) would actually use for this scenario:
  /// `policy.shards` clamped to the fleet size, collapsed to 1 when hubs
  /// couple through a shared access point *without* window-quantum
  /// arbitration (ApConfig::reservation_window == 0) or a power trace is
  /// recorded. A windowed AP is a coupling contract the shard barrier can
  /// honour, so those fleets keep their shards.
  [[nodiscard]] int effective_shards(const ExecPolicy& policy) const;

 private:
  /// The one execution path: `shards` (already effective) workers, each
  /// running its hub block as a sequence of kernels, inline on the calling
  /// thread when there is one.
  [[nodiscard]] ScenarioResult run_shards(int shards);

  Scenario scenario_;
};

/// Convenience: run one scenario.
[[nodiscard]] ScenarioResult run_scenario(Scenario scenario, ExecPolicy policy = {});

}  // namespace iotsim::core
