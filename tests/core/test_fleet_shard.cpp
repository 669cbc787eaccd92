// The shard runner's determinism contract: for every ExecPolicy,
// run(policy) serializes byte-identically to the one-shard run() —
// sharding is an execution shape, never a result change.
#include <gtest/gtest.h>

#include <string>

#include "core/result_json.h"
#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

Scenario ideal_fleet(int hubs, int windows = 2) {
  auto builder = Scenario::builder()
                     .scheme(Scheme::kBcom)
                     .windows(windows);
  const std::vector<std::vector<AppId>> mixes = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), mixes[static_cast<std::size_t>(i) % mixes.size()]);
  }
  return builder.build();
}

Scenario contended_fleet(int hubs, net::BackoffPolicy backoff,
                         sim::Duration reservation_window = sim::Duration::zero()) {
  auto builder = Scenario::builder()
                     .scheme(Scheme::kBcom)
                     .windows(2);
  for (int i = 0; i < hubs; ++i) {
    builder.add_hub(hw::default_hub_spec(), {AppId::kA2StepCounter, AppId::kA5Blynk});
  }
  net::ApConfig ap;
  ap.bytes_per_second = 6.25e5;
  ap.backoff = backoff;
  ap.reservation_window = reservation_window;
  builder.network(ap);
  return builder.build();
}

std::string run_json(const Scenario& sc, const ExecPolicy& policy) {
  return to_json_text(run_scenario(sc, policy));
}

TEST(FleetShard, ShardedIdealFleetIsByteIdentical) {
  const Scenario sc = ideal_fleet(12);
  const std::string single = run_json(sc, ExecPolicy{});
  for (int shards : {2, 3, 8}) {
    EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
        << "shards=" << shards;
  }
}

TEST(FleetShard, SharedAccessPointCollapsesToExactSingleShard) {
  for (auto backoff : {net::BackoffPolicy::kFifo, net::BackoffPolicy::kCsma}) {
    const Scenario sc = contended_fleet(6, backoff);
    ScenarioRunner runner{sc};
    EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 8}), 1);
    const std::string single = run_json(sc, ExecPolicy{});
    for (int shards : {2, 8}) {
      EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
          << "backoff=" << static_cast<int>(backoff) << " shards=" << shards;
    }
  }
}

TEST(FleetShard, WindowedAccessPointShardsByteIdentically) {
  // A reservation window promotes the AP coupling into a window-quantum
  // contract: the fleet shards with barriers at window boundaries and must
  // still serialize byte-for-byte like the single-shard run.
  const Scenario sc = contended_fleet(6, net::BackoffPolicy::kFifo,
                                      sim::Duration::ms(10));
  ScenarioRunner runner{sc};
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 4}), 4);
  const std::string single = run_json(sc, ExecPolicy{});
  for (int shards : {2, 3, 8}) {
    EXPECT_EQ(single, run_json(sc, ExecPolicy{.shards = shards}))
        << "shards=" << shards;
  }
  // A power trace keeps the fleet on one shard, where hubs attach the trace
  // to the kernel-less AP's run: the result must not move, and the trace
  // must integrate to the ledger's total.
  Scenario traced = sc;
  traced.record_power_trace = true;
  const ScenarioResult r = run_scenario(traced, ExecPolicy{.shards = 4});
  EXPECT_EQ(single, to_json_text(r));
  EXPECT_EQ(r.energy.kernel().shards, 1);
  ASSERT_NE(r.power_trace, nullptr);
  const double trace_j =
      r.power_trace->joules_between(sim::SimTime::origin(), sim::SimTime::origin() + r.span);
  EXPECT_NEAR(trace_j, r.total_joules(), r.total_joules() * 1e-6);
}

TEST(FleetShard, WindowedAccessPointReportsShardsInKernelStats) {
  const Scenario sc = contended_fleet(4, net::BackoffPolicy::kFifo,
                                      sim::Duration::ms(5));
  const auto sharded = run_scenario(sc, ExecPolicy{.shards = 2});
  EXPECT_EQ(sharded.energy.kernel().shards, 2);
  EXPECT_GT(sharded.energy.kernel().events_dispatched, 0u);
}

TEST(FleetShard, EffectiveShardsClampsToFleetAndPolicy) {
  ScenarioRunner runner{ideal_fleet(4)};
  EXPECT_EQ(runner.effective_shards(ExecPolicy{}), 1);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 0}), 1);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = -3}), 1);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 2}), 2);
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 64}), 4);  // fleet size
}

TEST(FleetShard, PowerTraceForcesSingleShard) {
  auto sc = ideal_fleet(4);
  sc.record_power_trace = true;
  ScenarioRunner runner{sc};
  EXPECT_EQ(runner.effective_shards(ExecPolicy{.shards = 8}), 1);
}

TEST(FleetShard, KernelEventsAreExecutionShapeInvariant) {
  const Scenario sc = ideal_fleet(6);
  const auto single = run_scenario(sc);
  const auto sharded = run_scenario(sc, ExecPolicy{.shards = 3});
  EXPECT_GT(single.energy.kernel().events_dispatched, 0u);
  EXPECT_EQ(single.energy.kernel().events_dispatched,
            sharded.energy.kernel().events_dispatched);
  EXPECT_EQ(single.energy.kernel().shards, 1);
  EXPECT_EQ(sharded.energy.kernel().shards, 3);
}

TEST(FleetShard, SingleHubScenarioRunsUnderAnyPolicy) {
  const Scenario sc = Scenario::builder()
                          .apps({AppId::kA2StepCounter})
                          .scheme(Scheme::kCom)
                          .windows(2)
                          .build();
  EXPECT_EQ(run_json(sc, ExecPolicy{}), run_json(sc, ExecPolicy{.shards = 8}));
}

}  // namespace
}  // namespace iotsim::core
