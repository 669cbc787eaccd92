// net::Medium contract: IdealMedium's no-suspension grants, FIFO
// serialization with exact wait accounting, bounded-queue drops, uplink
// airtime stretching, CSMA backoff determinism, and utilization.
#include "net/medium.h"

#include <gtest/gtest.h>

#include <vector>

#include "net/shared_access_point.h"
#include "sim/simulator.h"

namespace iotsim::net {
namespace {

using sim::Duration;
using sim::Rng;
using sim::SimTime;
using sim::Task;

TEST(IdealMedium, GrantsInstantlyWithoutAdvancingTime) {
  sim::Simulator sim;
  IdealMedium medium;
  const std::size_t a = medium.attach("nic", Rng{1});

  bool granted = false;
  SimTime grant_time;
  auto p = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(5)};
    const Grant g = co_await medium.acquire(a, 1000, Duration::ms(10));
    granted = g.granted;
    grant_time = sim.now();
    EXPECT_EQ(g.airtime, Duration::ms(10));  // NIC wire speed, unstretched
  };
  sim.spawn(p());
  sim.run();
  EXPECT_TRUE(granted);
  EXPECT_EQ(grant_time, SimTime::origin() + Duration::ms(5));  // no wait
  EXPECT_TRUE(medium.free_now());
  EXPECT_EQ(medium.stats(a).grants, 1u);
  EXPECT_EQ(medium.stats(a).airtime_wait, Duration::zero());
  EXPECT_EQ(medium.stats(a).retries, 0u);
  EXPECT_EQ(medium.stats(a).drops, 0u);
  EXPECT_DOUBLE_EQ(medium.utilization(sim.now()), 0.0);
}

ApConfig fast_ap() {
  ApConfig cfg;
  cfg.bytes_per_second = 1.0e9;  // AP never the bottleneck: airtime = nic wire
  cfg.queue_depth = 8;
  cfg.backoff = BackoffPolicy::kFifo;
  return cfg;
}

TEST(SharedAccessPoint, FifoSerializesOverlappingBursts) {
  sim::Simulator sim;
  SharedAccessPoint ap{sim, fast_ap()};
  const std::size_t a = ap.attach("nic_a", Rng{1});
  const std::size_t b = ap.attach("nic_b", Rng{2});

  SimTime a_done, b_done;
  auto pa = [&]() -> Task<void> {
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(100));
    EXPECT_TRUE(g.granted);
    co_await sim::Delay{g.airtime};
    a_done = sim.now();
  };
  auto pb = [&]() -> Task<void> {
    const Grant g = co_await ap.acquire(b, 1000, Duration::ms(40));
    EXPECT_TRUE(g.granted);
    co_await sim::Delay{g.airtime};
    b_done = sim.now();
  };
  sim.spawn(pa());
  sim.spawn(pb());
  sim.run();

  // A seizes [0, 100 ms); B waits the full 100 ms, then holds [100, 140 ms).
  EXPECT_EQ(a_done, SimTime::origin() + Duration::ms(100));
  EXPECT_EQ(b_done, SimTime::origin() + Duration::ms(140));
  EXPECT_EQ(ap.stats(a).airtime_wait, Duration::zero());
  EXPECT_EQ(ap.stats(b).airtime_wait, Duration::ms(100));
  EXPECT_EQ(ap.stats(a).grants, 1u);
  EXPECT_EQ(ap.stats(b).grants, 1u);
  EXPECT_EQ(ap.stats().totals.grants, 2u);
  EXPECT_EQ(ap.stats().totals.airtime_wait, Duration::ms(100));
}

TEST(SharedAccessPoint, QueueFullDropsTheExcessBurst) {
  ApConfig cfg = fast_ap();
  cfg.queue_depth = 1;
  sim::Simulator sim;
  SharedAccessPoint ap{sim, cfg};
  const std::size_t a = ap.attach("nic_a", Rng{1});
  const std::size_t b = ap.attach("nic_b", Rng{2});
  const std::size_t c = ap.attach("nic_c", Rng{3});

  std::vector<bool> outcomes;
  auto send = [&](std::size_t att) -> Task<void> {
    const Grant g = co_await ap.acquire(att, 1000, Duration::ms(50));
    outcomes.push_back(g.granted);
    if (g.granted) co_await sim::Delay{g.airtime};
  };
  sim.spawn(send(a));  // holds the channel
  sim.spawn(send(b));  // the one allowed waiter
  sim.spawn(send(c));  // queue full: dropped
  sim.run();

  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0]);   // c's verdict lands first (no wait), but order
  EXPECT_FALSE(outcomes[0] && outcomes[1] && outcomes[2]);
  EXPECT_EQ(ap.stats(a).grants, 1u);
  EXPECT_EQ(ap.stats(b).grants, 1u);
  EXPECT_EQ(ap.stats(c).grants, 0u);
  EXPECT_EQ(ap.stats(c).drops, 1u);
  EXPECT_EQ(ap.stats().totals.drops, 1u);
}

TEST(SharedAccessPoint, SlowUplinkStretchesAirtime) {
  ApConfig cfg = fast_ap();
  cfg.bytes_per_second = 1.0e5;  // 100 KB/s uplink
  sim::Simulator sim;
  SharedAccessPoint ap{sim, cfg};
  const std::size_t a = ap.attach("nic", Rng{1});

  Duration airtime;
  auto p = [&]() -> Task<void> {
    // NIC could push 100 KB in 10 ms, but the AP needs a full second.
    const Grant g = co_await ap.acquire(a, 100'000, Duration::ms(10));
    airtime = g.airtime;
  };
  sim.spawn(p());
  sim.run();
  EXPECT_EQ(airtime, Duration::sec(1));
}

TEST(SharedAccessPoint, AirtimeNeverBelowNicWireTime) {
  sim::Simulator sim;
  SharedAccessPoint ap{sim, fast_ap()};  // 1 GB/s uplink
  const std::size_t a = ap.attach("nic", Rng{1});

  Duration airtime;
  auto p = [&]() -> Task<void> {
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(25));
    airtime = g.airtime;
  };
  sim.spawn(p());
  sim.run();
  EXPECT_EQ(airtime, Duration::ms(25));  // the radio is the bottleneck
}

ApConfig csma_ap() {
  ApConfig cfg = fast_ap();
  cfg.backoff = BackoffPolicy::kCsma;
  cfg.backoff_slot = Duration::from_us(500.0);
  cfg.max_backoff_exponent = 4;
  return cfg;
}

TEST(SharedAccessPoint, CsmaBacksOffThenGrants) {
  sim::Simulator sim;
  SharedAccessPoint ap{sim, csma_ap()};
  const std::size_t a = ap.attach("nic_a", Rng{1});
  const std::size_t b = ap.attach("nic_b", Rng{2});

  SimTime b_granted;
  auto pa = [&]() -> Task<void> {
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(20));
    co_await sim::Delay{g.airtime};
  };
  auto pb = [&]() -> Task<void> {
    const Grant g = co_await ap.acquire(b, 1000, Duration::ms(20));
    EXPECT_TRUE(g.granted);
    b_granted = sim.now();
    co_await sim::Delay{g.airtime};
  };
  sim.spawn(pa());
  sim.spawn(pb());
  sim.run();

  // B sensed a busy channel, so it backed off at least once and could only
  // seize the channel after A's 20 ms burst ended.
  EXPECT_GE(ap.stats(b).retries, 1u);
  EXPECT_GE(b_granted, SimTime::origin() + Duration::ms(20));
  EXPECT_GE(ap.stats(b).airtime_wait, Duration::ms(20));
  EXPECT_EQ(ap.stats().totals.grants, 2u);
}

TEST(SharedAccessPoint, CsmaIsDeterministicForAFixedSeed) {
  auto run_once = [] {
    sim::Simulator sim;
    SharedAccessPoint ap{sim, csma_ap()};
    const std::size_t a = ap.attach("nic_a", Rng{11});
    const std::size_t b = ap.attach("nic_b", Rng{22});
    const std::size_t c = ap.attach("nic_c", Rng{33});
    auto send = [&](std::size_t att, std::int64_t ms) -> Task<void> {
      const Grant g = co_await ap.acquire(att, 1000, Duration::ms(ms));
      if (g.granted) co_await sim::Delay{g.airtime};
    };
    sim.spawn(send(a, 30));
    sim.spawn(send(b, 20));
    sim.spawn(send(c, 10));
    sim.run();
    struct Outcome {
      std::int64_t wait_a, wait_b, wait_c;
      std::uint64_t retries;
      std::int64_t end;
    };
    return Outcome{ap.stats(a).airtime_wait.count_ns(), ap.stats(b).airtime_wait.count_ns(),
                   ap.stats(c).airtime_wait.count_ns(), ap.stats().totals.retries,
                   sim.now().count_ns()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.wait_a, second.wait_a);
  EXPECT_EQ(first.wait_b, second.wait_b);
  EXPECT_EQ(first.wait_c, second.wait_c);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.end, second.end);
}

TEST(SharedAccessPoint, UtilizationIsBusyFractionOfElapsed) {
  sim::Simulator sim;
  SharedAccessPoint ap{sim, fast_ap()};
  const std::size_t a = ap.attach("nic", Rng{1});

  auto p = [&]() -> Task<void> {
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(30));
    co_await sim::Delay{g.airtime};
    co_await sim::Delay{Duration::ms(70)};  // idle padding
  };
  sim.spawn(p());
  sim.run();
  // 30 ms busy over a 100 ms run.
  EXPECT_NEAR(ap.utilization(sim.now()), 0.3, 1e-12);
  EXPECT_DOUBLE_EQ(ap.utilization(SimTime::origin()), 0.0);
}

TEST(SharedAccessPoint, FreeNowTracksTheReservation) {
  sim::Simulator sim;
  SharedAccessPoint ap{sim, fast_ap()};
  const std::size_t a = ap.attach("nic", Rng{1});

  auto p = [&]() -> Task<void> {
    EXPECT_TRUE(ap.free_now());
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(10));
    EXPECT_FALSE(ap.free_now());  // mid-burst
    co_await sim::Delay{g.airtime};
    EXPECT_TRUE(ap.free_now());  // reservation ended exactly now
  };
  sim.spawn(p());
  sim.run();
}

ApConfig windowed_ap(std::int64_t window_ms = 10) {
  ApConfig cfg = fast_ap();
  cfg.reservation_window = Duration::ms(window_ms);
  return cfg;
}

/// The shard runner's driver for a windowed AP, on one kernel: drain the
/// simulator to each reservation-window boundary, then arbitrate there,
/// until no event or request is left.
void run_windowed(sim::Simulator& sim, SharedAccessPoint& ap) {
  const Duration window = windowed_ap().reservation_window;
  for (SimTime boundary = SimTime::origin() + window;; boundary = boundary + window) {
    sim.drain_until(boundary);
    ap.arbitrate_window(boundary);
    if (sim.stats().pending_events == 0 && ap.pending_requests() == 0) return;
  }
}

TEST(SharedAccessPointWindowed, BatchesAWindowAndGrantsInRequestTimeOrder) {
  sim::Simulator sim;
  SharedAccessPoint ap{windowed_ap()};
  const std::size_t a = ap.attach_at(0, "nic_a", Rng{1}, sim);
  const std::size_t b = ap.attach_at(1, "nic_b", Rng{2}, sim);

  SimTime a_granted, b_granted;
  auto pa = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(3)};
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(20));
    EXPECT_TRUE(g.granted);
    a_granted = sim.now();
    co_await sim::Delay{g.airtime};
  };
  auto pb = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(1)};
    const Grant g = co_await ap.acquire(b, 1000, Duration::ms(10));
    EXPECT_TRUE(g.granted);
    b_granted = sim.now();
    co_await sim::Delay{g.airtime};
  };
  sim.spawn(pa());
  sim.spawn(pb());
  run_windowed(sim, ap);

  // Both requests land in the [0, 10 ms) window and arbitrate at 10 ms in
  // (request time, slot, seq) order: B asked at 1 ms so it transmits first,
  // [10, 20 ms); A follows back-to-back, [20, 40 ms).
  EXPECT_EQ(b_granted, SimTime::origin() + Duration::ms(10));
  EXPECT_EQ(a_granted, SimTime::origin() + Duration::ms(20));
  EXPECT_EQ(ap.stats(b).airtime_wait, Duration::ms(9));
  EXPECT_EQ(ap.stats(a).airtime_wait, Duration::ms(17));
  EXPECT_EQ(ap.stats().totals.grants, 2u);
  EXPECT_EQ(ap.pending_requests(), 0u);
}

TEST(SharedAccessPointWindowed, SimultaneousRequestsTieBreakOnTheSlot) {
  sim::Simulator sim;
  SharedAccessPoint ap{windowed_ap()};
  const std::size_t a = ap.attach_at(0, "nic_a", Rng{1}, sim);
  const std::size_t b = ap.attach_at(1, "nic_b", Rng{2}, sim);

  SimTime a_granted, b_granted;
  auto send = [&](std::size_t att, SimTime& granted) -> Task<void> {
    co_await sim::Delay{Duration::ms(2)};
    const Grant g = co_await ap.acquire(att, 1000, Duration::ms(5));
    granted = sim.now();
    co_await sim::Delay{g.airtime};
  };
  // Spawn order must not matter: the lower slot wins the equal-time tie.
  sim.spawn(send(b, b_granted));
  sim.spawn(send(a, a_granted));
  run_windowed(sim, ap);
  EXPECT_EQ(a_granted, SimTime::origin() + Duration::ms(10));
  EXPECT_EQ(b_granted, SimTime::origin() + Duration::ms(15));
}

TEST(SharedAccessPointWindowed, BoundaryTimeRequestWaitsForTheNextWindow) {
  sim::Simulator sim;
  SharedAccessPoint ap{windowed_ap()};
  const std::size_t a = ap.attach_at(0, "nic", Rng{1}, sim);

  SimTime granted;
  auto p = [&]() -> Task<void> {
    co_await sim::Delay{Duration::ms(10)};  // ask exactly at the boundary
    const Grant g = co_await ap.acquire(a, 1000, Duration::ms(5));
    EXPECT_TRUE(g.granted);
    granted = sim.now();
    co_await sim::Delay{g.airtime};
  };
  sim.spawn(p());
  run_windowed(sim, ap);
  // The strict `requested < boundary` filter mirrors that boundary-time model
  // events run before arbitration: the request joins the [10, 20 ms) batch.
  EXPECT_EQ(granted, SimTime::origin() + Duration::ms(20));
  EXPECT_EQ(ap.stats(a).airtime_wait, Duration::ms(10));
}

TEST(SharedAccessPointWindowed, QueueDepthBoundsReservationsPerBoundary) {
  ApConfig cfg = windowed_ap();
  cfg.queue_depth = 1;
  sim::Simulator sim;
  SharedAccessPoint ap{cfg};
  const std::size_t a = ap.attach_at(0, "nic_a", Rng{1}, sim);
  const std::size_t b = ap.attach_at(1, "nic_b", Rng{2}, sim);
  const std::size_t c = ap.attach_at(2, "nic_c", Rng{3}, sim);

  int granted = 0, dropped = 0;
  auto send = [&](std::size_t att) -> Task<void> {
    co_await sim::Delay{Duration::ms(1)};
    const Grant g = co_await ap.acquire(att, 1000, Duration::ms(50));
    ++(g.granted ? granted : dropped);
    if (g.granted) co_await sim::Delay{g.airtime};
  };
  sim.spawn(send(a));
  sim.spawn(send(b));
  sim.spawn(send(c));
  run_windowed(sim, ap);
  // One reservation fits; the rest of the batch sees a full queue and is
  // refused at the boundary itself, not at some later channel-free time.
  EXPECT_EQ(granted, 1);
  EXPECT_EQ(dropped, 2);
  EXPECT_EQ(ap.stats().totals.drops, 2u);
  EXPECT_EQ(ap.stats(a).grants, 1u);  // lowest slot wins the tie
}

TEST(SharedAccessPointWindowed, ChannelIsNeverGrabItNowFree) {
  sim::Simulator sim;
  SharedAccessPoint ap{windowed_ap()};
  (void)ap.attach_at(0, "nic", Rng{1}, sim);
  EXPECT_FALSE(ap.free_now());  // idle-listen is deterministic, never a race
  EXPECT_EQ(ap.stats().kind, "shared-ap-windowed");
}

TEST(SharedAccessPointWindowed, KernelLessApArbitratesFromExternalBoundaries) {
  // The sharded runner's shape: no kernel inside the AP, request times come
  // from each attachment's owner simulator, and the harness (here: the test)
  // calls arbitrate_window at every boundary.
  sim::Simulator sim;
  SharedAccessPoint ap{windowed_ap()};
  ap.reserve_attachments(2);
  const std::size_t a = ap.attach_at(0, "nic_a", Rng{1}, sim);
  const std::size_t b = ap.attach_at(1, "nic_b", Rng{2}, sim);

  SimTime a_granted, b_granted;
  auto send = [&](std::size_t att, std::int64_t at_ms, SimTime& granted) -> Task<void> {
    co_await sim::Delay{Duration::ms(at_ms)};
    const Grant g = co_await ap.acquire(att, 1000, Duration::ms(4));
    EXPECT_TRUE(g.granted);
    granted = sim.now();
    co_await sim::Delay{g.airtime};
  };
  sim.spawn(send(a, 3, a_granted));
  sim.spawn(send(b, 1, b_granted));
  sim.run_until(SimTime::origin() + Duration::ms(10));
  EXPECT_EQ(ap.pending_requests(), 2u);
  ap.arbitrate_window(SimTime::origin() + Duration::ms(10));
  EXPECT_EQ(ap.pending_requests(), 0u);
  sim.run();
  EXPECT_EQ(b_granted, SimTime::origin() + Duration::ms(10));
  EXPECT_EQ(a_granted, SimTime::origin() + Duration::ms(14));
  EXPECT_EQ(ap.stats().totals.grants, 2u);
}

TEST(MediumStats, AggregateSnapshotMatchesLegacyAccessors) {
  sim::Simulator sim;
  SharedAccessPoint ap{sim, fast_ap()};
  const std::size_t a = ap.attach("nic_a", Rng{1});
  const std::size_t b = ap.attach("nic_b", Rng{2});

  auto send = [&](std::size_t att, Duration airtime) -> Task<void> {
    const Grant g = co_await ap.acquire(att, 1000, airtime);
    EXPECT_TRUE(g.granted);
    co_await sim::Delay{g.airtime};
  };
  sim.spawn(send(a, Duration::ms(100)));
  sim.spawn(send(b, Duration::ms(40)));
  sim.run();

  const MediumStats s = ap.stats();
  EXPECT_EQ(s.kind, "shared-ap-fifo");
  EXPECT_EQ(s.attachments, 2u);
  EXPECT_EQ(s.pending, 0);
  // B queued behind A's 100 ms burst.
  EXPECT_EQ(s.totals.grants, 2u);
  EXPECT_EQ(s.totals.airtime_wait, Duration::ms(100));
  EXPECT_EQ(s.busy_airtime, Duration::ms(140));
  EXPECT_DOUBLE_EQ(ap.utilization(sim.now()),
                   s.busy_airtime.to_seconds() / sim.now().to_seconds());
  EXPECT_EQ(s.next_free, sim.now());  // last reservation ended exactly now

  sim::Simulator sim2;
  IdealMedium ideal;
  (void)ideal.attach("nic", Rng{3});
  const MediumStats is = ideal.stats();
  EXPECT_EQ(is.kind, "ideal");
  EXPECT_EQ(is.attachments, 1u);
  EXPECT_EQ(is.busy_airtime, Duration::zero());
  EXPECT_EQ(is.next_free, SimTime::infinite());
}

}  // namespace
}  // namespace iotsim::net
