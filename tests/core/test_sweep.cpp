// SweepRunner: parallel determinism, memoization, ordered results — and the
// ThreadPool underneath it.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/scenario_runner.h"
#include "core/sweep.h"
#include "core/thread_pool.h"
#include "sweep_options.h"

namespace iotsim::core {
namespace {

using apps::AppId;

Scenario quick(AppId id, Scheme scheme, std::uint64_t seed = 42) {
  return Scenario::builder().apps({id}).scheme(scheme).windows(1).seed(seed).build();
}

// ---- scenario_key ---------------------------------------------------------

TEST(ScenarioKey, EqualScenariosShareAKey) {
  EXPECT_EQ(scenario_key(quick(AppId::kA2StepCounter, Scheme::kCom)),
            scenario_key(quick(AppId::kA2StepCounter, Scheme::kCom)));
}

TEST(ScenarioKey, EveryFieldParticipates) {
  const auto base = quick(AppId::kA2StepCounter, Scheme::kCom);
  const auto base_key = scenario_key(base);

  EXPECT_NE(scenario_key(quick(AppId::kA7Earthquake, Scheme::kCom)), base_key);
  EXPECT_NE(scenario_key(quick(AppId::kA2StepCounter, Scheme::kBatching)), base_key);
  EXPECT_NE(scenario_key(quick(AppId::kA2StepCounter, Scheme::kCom, 43)), base_key);

  auto windows = base;
  windows.windows = 2;
  EXPECT_NE(scenario_key(windows), base_key);

  auto flushes = base;
  flushes.batch_flushes_per_window = 2;
  EXPECT_NE(scenario_key(flushes), base_key);

  auto mcu = base;
  mcu.mcu_speed_factor = 2.0;
  EXPECT_NE(scenario_key(mcu), base_key);

  auto trace = base;
  trace.record_power_trace = true;
  EXPECT_NE(scenario_key(trace), base_key);

  auto hub = base;
  hub.hub.dma_enabled = !hub.hub.dma_enabled;
  EXPECT_NE(scenario_key(hub), base_key);

  auto world = base;
  world.world.heart_bpm += 1.0;
  EXPECT_NE(scenario_key(world), base_key);
}

// ---- determinism across thread counts -------------------------------------

TEST(Sweep, SameResultsAtAnyJobCount) {
  std::vector<Scenario> sweep;
  for (auto scheme : {Scheme::kBaseline, Scheme::kBatching, Scheme::kCom}) {
    sweep.push_back(quick(AppId::kA2StepCounter, scheme));
    sweep.push_back(quick(AppId::kA3ArduinoJson, scheme));
  }

  const auto serial = SweepRunner{test::with_jobs(1)}.run(sweep);
  const auto parallel = SweepRunner{test::with_jobs(8)}.run(sweep);
  ASSERT_EQ(serial.size(), sweep.size());
  ASSERT_EQ(parallel.size(), sweep.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    // Bit-identical, not approximately equal: the acceptance bar for the
    // parallel engine.
    EXPECT_EQ(serial[i].total_joules(), parallel[i].total_joules()) << "scenario " << i;
    EXPECT_EQ(serial[i].interrupts_raised, parallel[i].interrupts_raised) << "scenario " << i;
    EXPECT_EQ(serial[i].cpu_wakeups, parallel[i].cpu_wakeups) << "scenario " << i;
  }
}

TEST(Sweep, MatchesDirectRunScenario) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBatching);
  const auto direct = run_scenario(sc);
  const auto swept = SweepRunner{test::with_jobs(4)}.run({sc});
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(direct.total_joules(), swept[0].total_joules());
}

TEST(Sweep, ResultsKeepInputOrder) {
  const std::vector<Scenario> sweep = {quick(AppId::kA2StepCounter, Scheme::kCom),
                                       quick(AppId::kA3ArduinoJson, Scheme::kCom),
                                       quick(AppId::kA2StepCounter, Scheme::kBaseline)};
  const auto results = SweepRunner{test::with_jobs(8)}.run(sweep);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].apps.count(AppId::kA2StepCounter), 1u);
  EXPECT_EQ(results[1].apps.count(AppId::kA3ArduinoJson), 1u);
  EXPECT_EQ(results[2].apps.count(AppId::kA2StepCounter), 1u);
  // Scheme ordering: COM beats Baseline for A2, so slot 0 < slot 2.
  EXPECT_LT(results[0].total_joules(), results[2].total_joules());
}

// ---- memoization ----------------------------------------------------------

TEST(Sweep, DuplicateScenariosRunOnce) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{test::with_jobs(4)};
  const auto results = runner.run({sc, sc, sc, sc});
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(runner.stats().scheduled, 4u);
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().cache_hits, 3u);
  for (const auto& r : results) EXPECT_EQ(r.total_joules(), results[0].total_joules());
}

TEST(Sweep, CacheSurvivesAcrossBatches) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBatching);
  SweepRunner runner{test::with_jobs(2)};
  const auto first = runner.run({sc});
  const auto second = runner.run({sc});
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().cache_hits, 1u);
  EXPECT_EQ(first[0].total_joules(), second[0].total_joules());
}

TEST(Sweep, DistinctSeedsMissTheCache) {
  SweepRunner runner{test::with_jobs(2)};
  (void)runner.run({quick(AppId::kA2StepCounter, Scheme::kBaseline, 1),
              quick(AppId::kA2StepCounter, Scheme::kBaseline, 2)});
  EXPECT_EQ(runner.stats().executed, 2u);
  EXPECT_EQ(runner.stats().cache_hits, 0u);
  EXPECT_EQ(runner.cache_size(), 2u);
}

TEST(Sweep, MemoizationCanBeDisabled) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{test::with_jobs(2, false)};
  (void)runner.run({sc});
  (void)runner.run({sc});
  EXPECT_EQ(runner.stats().executed, 2u);
  EXPECT_EQ(runner.stats().cache_hits, 0u);
  EXPECT_EQ(runner.cache_size(), 0u);
}

TEST(Sweep, RunOneMemoizesToo) {
  const auto sc = quick(AppId::kA3ArduinoJson, Scheme::kCom);
  SweepRunner runner{test::with_jobs(1)};
  const auto a = runner.run_one(sc);
  const auto b = runner.run_one(sc);
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().cache_hits, 1u);
  EXPECT_EQ(a.total_joules(), b.total_joules());
}

// ---- invalid scenarios ----------------------------------------------------

TEST(Sweep, InvalidScenarioSurfacesErrorsWithoutRunning) {
  const auto bad = Scenario::builder().windows(0).build();
  SweepRunner runner{test::with_jobs(2)};
  const auto results = runner.run({bad, quick(AppId::kA2StepCounter, Scheme::kBaseline)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_FALSE(results[0].errors.empty());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(runner.stats().invalid, 1u);
  EXPECT_EQ(runner.stats().executed, 1u);
}

// ---- options --------------------------------------------------------------

TEST(Sweep, ExplicitJobCountIsRespected) {
  EXPECT_EQ(SweepRunner{test::with_jobs(3)}.jobs(), 3);
  // jobs = 0 resolves to something runnable.
  EXPECT_GE(SweepRunner{SweepOptions{}}.jobs(), 1);
}

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool{4};
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  ThreadPool pool{2};
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool{1};
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor joins after the queue is drained
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ClampsNonPositiveThreadCount) {
  ThreadPool pool{0};  // clamped to one worker, or wait_idle() never returns
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

}  // namespace
}  // namespace iotsim::core
