// Golden bytes for the runner's partition of a fleet into kernels. A shard's
// contiguous hub range runs as a sequence of small kernels, each with its
// own simulator, ledger, medium and hubs; comparing one shard against k
// shards cannot see a bug in that split, because both sides run it. The
// digests below are the FNV-1a of to_json_text taken from the runner that
// drove each shard's whole hub range as one kernel, so they pin the split
// against those bytes at every shard count. Fleet sizes straddle the kernel
// size, and every coupling the runner distinguishes is covered: the ideal
// medium, a windowed access point (with crashing and solar hubs), an
// event-driven access point and a power trace. The last two couple hubs at
// equal timestamps and must stay one kernel, which their pinned queue
// depths check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/result_json.h"
#include "core/scenario_runner.h"

namespace iotsim::core {
namespace {

using apps::AppId;

enum class Coupling { kIdeal, kWindowedAp, kEventAp, kPowerTrace };

const char* name_of(Coupling c) {
  switch (c) {
    case Coupling::kIdeal: return "Ideal";
    case Coupling::kWindowedAp: return "WindowedAp";
    case Coupling::kEventAp: return "EventAp";
    case Coupling::kPowerTrace: return "PowerTrace";
  }
  return "?";
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

env::EnvironmentConfig bursty_crashy() {
  env::EnvironmentConfig e;
  e.faults.model = env::FaultModel::kGilbertElliott;
  e.faults.burst_enter_prob = 0.05;
  e.faults.burst_exit_prob = 0.3;
  e.faults.good_fault_prob = 0.01;
  e.faults.burst_fault_prob = 0.8;
  e.crash.crash_prob_per_window = 0.3;
  e.crash.reboot_windows = 1;
  return e;
}

env::EnvironmentConfig solar() {
  env::EnvironmentConfig e;
  e.power.model = env::PowerModel::kHarvesting;
  e.power.battery_capacity_wh = 0.0002;  // runs dry within the run
  e.power.harvest.peak_w = 2.0;
  e.power.harvest.period_s = 2.0;
  e.power.harvest.duty = 0.5;
  return e;
}

/// `hubs` hubs cycling through three portfolios, one template each, so
/// every kernel boundary falls between differently configured hubs.
Scenario fleet(Coupling coupling, int hubs) {
  static const std::vector<std::vector<AppId>> portfolios = {
      {AppId::kA2StepCounter, AppId::kA8Heartbeat},
      {AppId::kA5Blynk, AppId::kA7Earthquake},
      {AppId::kA3ArduinoJson, AppId::kA4M2x},
  };
  auto builder = Scenario::builder().scheme(Scheme::kBcom).windows(2).seed(7);
  for (int i = 0; i < hubs; ++i) {
    const auto p = static_cast<std::size_t>(i) % portfolios.size();
    builder.add_hub(hw::default_hub_spec(), portfolios[p]);
    if (coupling == Coupling::kWindowedAp && p == 0) builder.hub_environment(bursty_crashy());
    if (coupling == Coupling::kWindowedAp && p == 1) builder.hub_environment(solar());
  }
  if (coupling == Coupling::kWindowedAp || coupling == Coupling::kEventAp) {
    net::ApConfig ap;
    ap.bytes_per_second = 6.25e5;
    ap.backoff = net::BackoffPolicy::kFifo;
    if (coupling == Coupling::kWindowedAp) ap.reservation_window = sim::Duration::ms(10);
    builder.network(ap);
  }
  if (coupling == Coupling::kPowerTrace) builder.record_power_trace();
  return builder.build();
}

bool coupled(Coupling c) { return c == Coupling::kEventAp || c == Coupling::kPowerTrace; }

struct Golden {
  Coupling coupling;
  int hubs;
  std::uint64_t digest;       ///< FNV-1a of to_json_text
  std::size_t coupled_depth;  ///< one-kernel peak queue depth (coupled only)
};

// clang-format off
constexpr Golden kGoldens[] = {
    {Coupling::kIdeal,      1,  0x94807ce45188fda1ull, 0},
    {Coupling::kIdeal,      15, 0xf89be49a81451190ull, 0},
    {Coupling::kIdeal,      16, 0xb4fc3ef04d4e4399ull, 0},
    {Coupling::kIdeal,      17, 0x3697911d05a52ddaull, 0},
    {Coupling::kIdeal,      33, 0x1d774c5ee06de8f2ull, 0},
    {Coupling::kIdeal,      50, 0x3011a60043a4b6dcull, 0},
    {Coupling::kWindowedAp, 1,  0x829a3ab3240fdb58ull, 0},
    {Coupling::kWindowedAp, 15, 0x4225843ed379973full, 0},
    {Coupling::kWindowedAp, 16, 0x2329d2b5933b426eull, 0},
    {Coupling::kWindowedAp, 17, 0xf61922df71f10e28ull, 0},
    {Coupling::kWindowedAp, 33, 0x8eb3b2844bb827faull, 0},
    {Coupling::kWindowedAp, 50, 0xb0a02873886ba47dull, 0},
    {Coupling::kEventAp,    1,  0x2bc0a1bb5be49634ull, 6},
    {Coupling::kEventAp,    15, 0xa96828480f7b1651ull, 135},
    {Coupling::kEventAp,    16, 0x281604e638a0c3abull, 141},
    {Coupling::kEventAp,    17, 0x8611e80532b6ae05ull, 151},
    {Coupling::kEventAp,    33, 0x7a2b5aa81176a32bull, 297},
    {Coupling::kEventAp,    50, 0xd8d1feb75ba198c6ull, 448},
    {Coupling::kPowerTrace, 1,  0x94807ce45188fda1ull, 6},
    {Coupling::kPowerTrace, 15, 0xf89be49a81451190ull, 135},
    {Coupling::kPowerTrace, 16, 0xb4fc3ef04d4e4399ull, 141},
    {Coupling::kPowerTrace, 17, 0x3697911d05a52ddaull, 151},
    {Coupling::kPowerTrace, 33, 0x1d774c5ee06de8f2ull, 297},
    {Coupling::kPowerTrace, 50, 0x3011a60043a4b6dcull, 448},
};
// clang-format on

void PrintTo(const Golden& g, std::ostream* os) { *os << name_of(g.coupling) << g.hubs; }

class FleetKernels : public ::testing::TestWithParam<Golden> {};

TEST_P(FleetKernels, MatchesOneKernelBytesAtEveryShardCount) {
  const Golden& g = GetParam();
  const Scenario sc = fleet(g.coupling, g.hubs);
  for (int shards : {1, 2, 3}) {
    const ScenarioResult r = run_scenario(sc, ExecPolicy{.shards = shards});
    ASSERT_TRUE(r.ok()) << "shards=" << shards;
    EXPECT_EQ(fnv1a(to_json_text(r)), g.digest) << "shards=" << shards;
    const int want_shards = coupled(g.coupling) ? 1 : std::min(shards, g.hubs);
    EXPECT_EQ(r.energy.kernel().shards, want_shards) << "shards=" << shards;
    if (coupled(g.coupling)) {
      EXPECT_EQ(r.energy.kernel().peak_queue_depth, g.coupled_depth) << "shards=" << shards;
    }
    if (g.coupling == Coupling::kWindowedAp && g.hubs > 1) {
      // The pins cover contention, crashes and outages, not an idle AP.
      EXPECT_GT(r.energy.congestion().grants, 0u);
      EXPECT_GT(r.energy.availability().reboots, 0u);
      EXPECT_GT(r.energy.availability().samples_lost_outage, 0u);
    }
    if (g.coupling == Coupling::kPowerTrace) {
      ASSERT_NE(r.power_trace, nullptr);
      const double trace_j = r.power_trace->joules_between(sim::SimTime::origin(),
                                                           sim::SimTime::origin() + r.span);
      EXPECT_NEAR(trace_j, r.total_joules(), r.total_joules() * 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Goldens, FleetKernels, ::testing::ValuesIn(kGoldens),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string{name_of(info.param.coupling)} +
                                  std::to_string(info.param.hubs);
                         });

TEST(FleetKernelsDepth, IdealFleetPeaksPerKernelNotPerShard) {
  // A lockstep fleet's queue holds every hub of its kernel at each sample
  // instant, so the peak depth follows the kernel size, not the shard's hub
  // count: four kernels' worth of hubs on one shard peak like one. The hubs
  // alternate two portfolios, so every kernel holds the same mix.
  const auto depth = [](int hubs) {
    auto builder = Scenario::builder().scheme(Scheme::kBcom).windows(2);
    for (int i = 0; i < hubs; ++i) {
      builder.add_hub(hw::default_hub_spec(),
                      i % 2 == 0 ? std::vector<AppId>{AppId::kA2StepCounter, AppId::kA8Heartbeat}
                                 : std::vector<AppId>{AppId::kA3ArduinoJson, AppId::kA4M2x});
    }
    return run_scenario(builder.build()).energy.kernel().peak_queue_depth;
  };
  const std::size_t one_kernel = depth(16);
  EXPECT_GT(one_kernel, 16u);
  EXPECT_EQ(depth(64), one_kernel);
}

}  // namespace
}  // namespace iotsim::core
