// Scenario-level contention: shared-AP fleets are deterministic at any job
// count, shrinking the uplink monotonically raises network energy and airtime
// wait, per-hub stats reassemble the fleet congestion section, queue-bound
// drops surface in results, and the default IdealMedium path reports an
// unmodeled network with untouched counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/result_json.h"
#include "core/scenario_runner.h"
#include "core/sweep.h"
#include "net/config.h"
#include "sweep_options.h"

namespace iotsim::core {
namespace {

using apps::AppId;
using energy::Routine;

/// A four-hub fleet with chatty portfolios; `bandwidth` <= 0 leaves the
/// scenario on the default IdealMedium.
Scenario fleet(double bandwidth) {
  auto builder = Scenario::builder()
                     .add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter, AppId::kA8Heartbeat})
                     .add_hub(hw::default_hub_spec(), {AppId::kA5Blynk, AppId::kA7Earthquake})
                     .add_hub(hw::default_hub_spec(), {AppId::kA3ArduinoJson, AppId::kA4M2x}, 2)
                     .scheme(Scheme::kBcom)
                     .windows(2)
                     .seed(11);
  if (bandwidth > 0.0) {
    net::ApConfig ap;
    ap.bytes_per_second = bandwidth;
    builder.network(ap);
  }
  return builder.build();
}

TEST(Contention, UnmodeledNetworkReportsQuietCongestionSection) {
  const auto result = run_scenario(fleet(0.0));
  ASSERT_TRUE(result.ok());
  const auto& c = result.energy.congestion();
  EXPECT_FALSE(c.modeled);
  EXPECT_EQ(c.airtime_wait, sim::Duration::zero());
  EXPECT_EQ(c.retries, 0u);
  EXPECT_EQ(c.drops, 0u);
  EXPECT_DOUBLE_EQ(c.utilization, 0.0);
  for (const auto& hub : result.hubs) {
    EXPECT_EQ(hub.airtime_wait, sim::Duration::zero());
    EXPECT_EQ(hub.net_retries, 0u);
    EXPECT_EQ(hub.net_drops, 0u);
  }
}

TEST(Contention, SharedApFleetIsDeterministicRunToRun) {
  const auto first = run_scenario(fleet(6.25e5));
  const auto second = run_scenario(fleet(6.25e5));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(to_json_text(first), to_json_text(second));
}

TEST(Contention, SweepJobCountDoesNotChangeSharedApResults) {
  const std::vector<Scenario> scenarios = {fleet(2.5e6), fleet(6.25e5), fleet(1.25e5)};
  SweepRunner serial{test::with_jobs(1, false)};
  SweepRunner parallel{test::with_jobs(4, false)};
  const auto a = serial.run(scenarios);
  const auto b = parallel.run(scenarios);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(to_json_text(a[i]), to_json_text(b[i])) << "scenario #" << i;
  }
}

TEST(Contention, ShrinkingUplinkMonotonicallyRaisesWaitAndNetworkEnergy) {
  // Ideal, then 2.5 MB/s, 625 KB/s, 125 KB/s shared uplinks.
  const std::vector<double> bandwidths = {0.0, 2.5e6, 6.25e5, 1.25e5};
  std::vector<ScenarioResult> results;
  for (const double bw : bandwidths) results.push_back(run_scenario(fleet(bw)));
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_GE(results[i].energy.joules(Routine::kNetwork),
              results[i - 1].energy.joules(Routine::kNetwork) - 1e-9)
        << "bandwidth step #" << i;
    EXPECT_GE(results[i].energy.congestion().airtime_wait,
              results[i - 1].energy.congestion().airtime_wait)
        << "bandwidth step #" << i;
  }
  // The slowest uplink must actually induce contention, not just tie.
  EXPECT_GT(results.back().energy.congestion().airtime_wait, sim::Duration::zero());
  EXPECT_GT(results.back().energy.congestion().utilization, 0.0);
}

TEST(Contention, PerHubStatsSumToTheFleetCongestionSection) {
  const auto result = run_scenario(fleet(2.5e5));
  ASSERT_TRUE(result.ok());
  const auto& fleet_totals = result.energy.congestion();
  EXPECT_TRUE(fleet_totals.modeled);
  sim::Duration wait = sim::Duration::zero();
  std::uint64_t grants = 0, retries = 0, drops = 0;
  for (const auto& hub : result.hubs) {
    wait = wait + hub.airtime_wait;
    grants += hub.airtime_grants;
    retries += hub.net_retries;
    drops += hub.net_drops;
  }
  EXPECT_EQ(wait, fleet_totals.airtime_wait);
  EXPECT_EQ(grants, fleet_totals.grants);
  EXPECT_EQ(retries, fleet_totals.retries);
  EXPECT_EQ(drops, fleet_totals.drops);
  EXPECT_GT(grants, 0u);
}

TEST(Contention, StarvedQueueSurfacesDrops) {
  Scenario sc = fleet(0.0);
  net::ApConfig ap;
  ap.bytes_per_second = 2.0e4;  // 20 KB/s: bursts overlap heavily
  ap.queue_depth = 1;
  sc.network = ap;
  const auto result = run_scenario(sc);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.energy.congestion().drops, 0u);
}

TEST(Contention, CsmaBackoffIsDeterministicThroughTheRunner) {
  Scenario sc = fleet(0.0);
  net::ApConfig ap;
  ap.bytes_per_second = 1.25e5;
  ap.backoff = net::BackoffPolicy::kCsma;
  sc.network = ap;
  const auto first = run_scenario(sc);
  const auto second = run_scenario(sc);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.energy.congestion().retries, 0u);
  EXPECT_EQ(to_json_text(first), to_json_text(second));
}

TEST(Contention, JsonCarriesTheNetworkSectionAndPerHubCounters) {
  const auto result = run_scenario(fleet(1.25e5));
  ASSERT_TRUE(result.ok());
  const std::string json = to_json_text(result);
  EXPECT_NE(json.find("\"network\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_NE(json.find("\"airtime_wait_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"net_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"net_drops\""), std::string::npos);
  EXPECT_NE(json.find("\"airtime_grants\""), std::string::npos);
}

TEST(Contention, InvalidNetworkConfigFailsValidation) {
  Scenario sc = fleet(0.0);
  net::ApConfig ap;
  ap.bytes_per_second = -1.0;
  sc.network = ap;
  const auto result = run_scenario(sc);
  EXPECT_FALSE(result.ok());
  ASSERT_FALSE(result.errors.empty());
  EXPECT_EQ(result.errors[0].field, "network.bytes_per_second");
}

}  // namespace
}  // namespace iotsim::core
