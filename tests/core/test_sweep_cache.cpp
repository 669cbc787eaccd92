// The sweep's persistent disk tier: a fresh SweepRunner pointed at a warm
// cache directory must serve whole sweeps without executing a single
// scenario, bit-identically to the cold run, under both run() and
// run_one(), and concurrently from multiple runners sharing the directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "cache/result_cache.h"
#include "core/result_json.h"
#include "core/sweep.h"
#include "sweep_options.h"
#include "test_temp_dir.h"

namespace iotsim::core {
namespace {

using apps::AppId;

class SweepDiskCacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::unique_temp_dir("iotsim_sweep_disk_cache");
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Scenario quick(AppId id, Scheme scheme, int seed = 7) {
    Scenario sc;
    sc.app_ids = {id};
    sc.scheme = scheme;
    sc.windows = 1;
    sc.seed = seed;
    return sc;
  }

  static std::vector<Scenario> grid() {
    return {quick(AppId::kA2StepCounter, Scheme::kBaseline),
            quick(AppId::kA2StepCounter, Scheme::kBatching),
            quick(AppId::kA3ArduinoJson, Scheme::kCom)};
  }

  SweepOptions with_disk(int jobs = 2) const {
    return SweepOptions{.jobs = jobs, .cache_dir = dir_.string()};
  }

  std::filesystem::path dir_;
};

TEST_F(SweepDiskCacheFixture, WarmRunnerExecutesNothingAndMatchesByteForByte) {
  const auto sweep = grid();
  std::vector<std::string> cold;
  {
    SweepRunner runner{with_disk()};
    for (const auto& r : runner.run(sweep)) cold.push_back(to_json_text(r));
    EXPECT_EQ(runner.stats().executed, sweep.size());
    EXPECT_EQ(runner.stats().disk_stores, sweep.size());
    EXPECT_EQ(runner.stats().disk_hits, 0u);
  }
  SweepRunner warm{with_disk()};
  const auto results = warm.run(sweep);
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().disk_hits, sweep.size());
  EXPECT_EQ(warm.stats().disk_stores, 0u);
  ASSERT_EQ(results.size(), cold.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(to_json_text(results[i]), cold[i]) << "scenario " << i;
  }
}

TEST_F(SweepDiskCacheFixture, RunOnePromotesDiskHitsIntoTheMemo) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  {
    SweepRunner runner{with_disk(1)};
    (void)runner.run_one(sc);
    EXPECT_EQ(runner.stats().disk_stores, 1u);
  }
  SweepRunner warm{with_disk(1)};
  (void)warm.run_one(sc);
  EXPECT_EQ(warm.stats().executed, 0u);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  // Promoted into the in-memory memo: the second query is a memory hit,
  // not a second disk read.
  (void)warm.run_one(sc);
  EXPECT_EQ(warm.stats().disk_hits, 1u);
  EXPECT_EQ(warm.stats().cache_hits, 1u);
}

TEST_F(SweepDiskCacheFixture, MemoryTierStillDedupesWithinARun) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{with_disk()};
  (void)runner.run(std::vector{sc, sc, sc});
  EXPECT_EQ(runner.stats().executed, 1u);
  EXPECT_EQ(runner.stats().cache_hits, 2u);
  // Each distinct scenario is stored once, not once per duplicate.
  EXPECT_EQ(runner.stats().disk_stores, 1u);
}

TEST_F(SweepDiskCacheFixture, EmptyMemoStillHitsTheDiskTier) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{with_disk()};
  (void)runner.run(std::vector{sc});
  // A fresh runner starts with an empty memo, but the disk tier the first
  // one filled survives it: running the scenario again is a disk hit.
  SweepRunner fresh{with_disk()};
  EXPECT_EQ(fresh.cache_size(), 0u);
  (void)fresh.run(std::vector{sc});
  EXPECT_EQ(fresh.stats().executed, 0u);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  EXPECT_EQ(fresh.cache_size(), 1u);
}

TEST_F(SweepDiskCacheFixture, DiskTierRequiresMemoization) {
  const auto sc = quick(AppId::kA2StepCounter, Scheme::kBaseline);
  SweepRunner runner{SweepOptions{.jobs = 1, .memoize = false, .cache_dir = dir_.string()}};
  EXPECT_EQ(runner.disk_cache(), nullptr);
  (void)runner.run(std::vector{sc});
  (void)runner.run(std::vector{sc});
  EXPECT_EQ(runner.stats().executed, 2u);
  EXPECT_EQ(runner.stats().disk_stores, 0u);
}

TEST_F(SweepDiskCacheFixture, NoCacheDirMeansNoDiskTier) {
  SweepRunner runner{test::with_jobs(1)};
  EXPECT_EQ(runner.disk_cache(), nullptr);
  (void)runner.run(std::vector{quick(AppId::kA2StepCounter, Scheme::kBaseline)});
  EXPECT_EQ(runner.stats().disk_stores, 0u);
}

TEST_F(SweepDiskCacheFixture, ConcurrentRunnersShareTheDirectorySafely) {
  // Two runners, same cache directory, racing over an overlapping grid —
  // the shape TSan must bless. Results must match the serial baseline.
  const auto sweep = grid();
  std::vector<std::string> want;
  {
    SweepRunner serial{test::with_jobs(1)};
    for (const auto& r : serial.run(sweep)) want.push_back(to_json_text(r));
  }
  std::vector<std::vector<std::string>> got(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      SweepRunner runner{with_disk()};
      for (const auto& r : runner.run(sweep)) {
        got[static_cast<std::size_t>(t)].push_back(to_json_text(r));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(got[static_cast<std::size_t>(t)].size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(t)][i], want[i]);
    }
  }
  // Whoever lost the race, the directory ends warm and consistent.
  SweepRunner warm{with_disk()};
  (void)warm.run(sweep);
  EXPECT_EQ(warm.stats().executed, 0u);
}

}  // namespace
}  // namespace iotsim::core
