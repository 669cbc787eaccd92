// The parallel sweep engine: runs a batch of Scenarios across N worker
// threads and memoizes results behind a content hash of the scenario.
//
// The paper's headline results (Figs. 7–13, the ablations) are all sweeps of
// independent run_scenario() calls. Each scenario owns its own Simulator, so
// runs are embarrassingly parallel; the engine guarantees
//  * ordered collection — results come back in input order;
//  * bit-identical numbers at any thread count — every scenario is seeded by
//    its own content, never by scheduling order;
//  * one execution per distinct scenario — duplicates (the classic repeated
//    Baseline reference run) are served from the memo.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_policy.h"
#include "core/reports.h"
#include "core/scenario.h"

namespace iotsim::cache {
class ResultCache;  // persistent disk tier (cache/result_cache.h)
}

namespace iotsim::core {

/// Canonical byte serialisation of a Scenario — two scenarios produce the
/// same key iff every semantically relevant field matches. Used as the exact
/// memo key (no collision risk: the full serialisation is compared).
[[nodiscard]] std::string scenario_key(const Scenario& sc);

struct SweepOptions {
  /// Worker threads; <= 0 ⇒ std::thread::hardware_concurrency().
  int jobs = 0;
  /// Reuse results for content-identical scenarios (across run() calls too).
  bool memoize = true;
  /// Per-scenario execution shape (sharding). Never part of the memo key:
  /// results are byte-identical across policies by construction.
  ExecPolicy exec{};
  /// Non-empty ⇒ open a persistent content-addressed result cache there as
  /// the second tier under the in-memory memo (requires memoize; see
  /// cache/result_cache.h). Off by default.
  std::string cache_dir;
};

struct SweepStats {
  std::uint64_t scheduled = 0;   // scenarios handed to the runner
  std::uint64_t executed = 0;    // scenarios actually simulated
  std::uint64_t cache_hits = 0;  // served from the memo (or deduplicated)
  std::uint64_t invalid = 0;     // failed Scenario::validate(), never ran
  /// Kernel events dispatched by executed scenarios (memo hits add nothing)
  /// — the honest numerator for a bench's events/sec.
  std::uint64_t events_dispatched = 0;
  std::uint64_t disk_hits = 0;    // served from the persistent cache tier
  std::uint64_t disk_stores = 0;  // executed results persisted to disk
};

class SweepRunner {
 public:
  SweepRunner();
  explicit SweepRunner(SweepOptions opts);
  ~SweepRunner();
  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  /// Runs every scenario, fanning distinct ones out across the worker pool
  /// (inline on the calling thread when the pool would have one worker).
  /// Results are returned in input order; invalid scenarios yield a result
  /// whose `errors` is non-empty (they never execute).
  [[nodiscard]] std::vector<ScenarioResult> run(std::span<const Scenario> scenarios);

  /// run() on a one-scenario batch, so on the calling thread.
  [[nodiscard]] ScenarioResult run_one(const Scenario& scenario);

  [[nodiscard]] const SweepStats& stats() const { return stats_; }
  /// The resolved worker count run() will use.
  [[nodiscard]] int jobs() const;

  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }

  /// The persistent tier, or nullptr when cache_dir was empty (or memoize
  /// off). Exposed for stats and tests; lookups/stores go through run*().
  [[nodiscard]] const cache::ResultCache* disk_cache() const { return disk_.get(); }

 private:
  SweepOptions opts_;
  SweepStats stats_;
  /// scenario_key → immutable result, shared with callers by value-copy.
  std::unordered_map<std::string, std::shared_ptr<const ScenarioResult>> cache_;
  /// Second tier: probed after a memo miss, written after execution.
  std::unique_ptr<cache::ResultCache> disk_;
};

}  // namespace iotsim::core
