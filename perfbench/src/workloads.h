// The benchmark's inputs: every scenario a workload runs, generated from the
// workload seed alone. The sizes are fixed here, so two commits measured
// with the same seed run the same scenarios.
#pragma once

#include <cstdint>
#include <vector>

#include "core/scenario.h"

namespace perfbench {

/// QoS windows per paper_sweep scenario (one simulated second each).
inline constexpr int kPaperWindows = 5;
/// Fleet layout: the fleet is cut into this many shard blocks, each holding
/// one block per portfolio, so every shard of an ExecPolicy with up to this
/// many shards runs every portfolio and no shard's queue stays shallower.
inline constexpr int kShardBlocks = 4;
/// Hubs per (shard block, portfolio) template of the ideal fleet: 4 × 3 ×
/// 160 = 1920 hubs, 480 per shard: enough live events per shard to
/// cross EventQueue::kCalendarSwitchThreshold.
inline constexpr int kIdealHubsPerBlock = 160;
/// Hubs per template of the contended fleet (4 × 3 × 24 = 288 hubs, run on
/// one kernel in about 2.5 s).
inline constexpr int kContendedHubsPerBlock = 24;
inline constexpr int kFleetWindows = 1;

/// The paper's single-hub design space: the ten lightweight apps under
/// Baseline/Batching/COM/BCOM, the 14 Fig. 11 combos under Baseline/BEAM/
/// BCOM, and the Fig. 12 A11 blocks. 92 distinct scenarios.
[[nodiscard]] std::vector<iotsim::core::Scenario> paper_sweep_scenarios(std::uint64_t seed);

/// Index ranges of paper_sweep_scenarios(): scenario 4·i + s is lightweight
/// app i under scheme s ∈ {Baseline, Batching, COM, BCOM}.
inline constexpr int kLightweightBlock = 40;

/// The count-compressed mixed-portfolio BCOM fleet. `contended` puts it
/// behind a 5 Mbit/s FIFO window-quantum access point (10 ms reservation
/// window) and gives the first portfolio's hubs a bursty, crash-prone
/// environment and the second's solar harvesting; the third stays on mains.
[[nodiscard]] iotsim::core::Scenario fleet_scenario(std::uint64_t seed, int hubs_per_block,
                                                    bool contended, int windows = kFleetWindows);

/// What cache_replay stores: four small ideal fleets (12 to 192 hubs, two
/// windows) and the paper_sweep scenarios, so entries range from a few KB
/// to about 0.5 MB.
[[nodiscard]] std::vector<iotsim::core::Scenario> cache_scenarios(std::uint64_t seed);

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int available_cpus();

}  // namespace perfbench
