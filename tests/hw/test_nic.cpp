#include "hw/nic.h"

#include <gtest/gtest.h>

#include "energy/energy_accountant.h"
#include "net/shared_access_point.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace iotsim::hw {
namespace {

using energy::EnergyAccountant;
using energy::NicPowerSpec;
using energy::Routine;
using sim::Duration;
using sim::Task;

NicPowerSpec test_spec() {
  NicPowerSpec spec;
  spec.tx_w = 1.0;
  spec.rx_w = 0.5;
  spec.idle_w = 0.0;
  spec.bytes_per_second = 1.0e6;
  spec.tail = Duration::from_ms(100.0);
  return spec;
}

TEST(Nic, WireTimeFromRate) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Nic nic{sim, acct, "wifi", test_spec()};
  EXPECT_EQ(nic.wire_time(1'000'000), Duration::sec(1));
  EXPECT_EQ(nic.wire_time(10'000), Duration::ms(10));
}

TEST(Nic, TransmitChargesTxPlusTail) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Nic nic{sim, acct, "wifi", test_spec()};
  auto p = [&]() -> Task<void> { co_await nic.transmit(100'000); };  // 100 ms wire
  sim.spawn(p());
  sim.run();
  nic.power().flush();
  // 100 ms tx at 1 W + 100 ms tail at rx_w 0.5 W.
  EXPECT_NEAR(acct.joules(0, Routine::kNetwork), 0.1 + 0.05, 1e-9);
  EXPECT_EQ(nic.bytes_sent(), 100'000u);
}

TEST(Nic, BackToBackBurstsCoalesceTail) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Nic nic{sim, acct, "wifi", test_spec()};
  auto p = [&]() -> Task<void> {
    co_await nic.transmit(50'000);                // 50 ms
    co_await sim::Delay{Duration::ms(20)};        // inside the tail window
    co_await nic.transmit(50'000);                // 50 ms
    co_await sim::Delay{Duration::ms(200)};       // let the final tail expire
  };
  sim.spawn(p());
  sim.run();
  nic.power().flush();
  // tx: 100 ms at 1 W; tails: 20 ms (cut short) + 100 ms at 0.5 W.
  EXPECT_NEAR(acct.joules(0, Routine::kNetwork), 0.1 + 0.5 * 0.120, 1e-9);
}

TEST(Nic, ReceiveUsesRxPower) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Nic nic{sim, acct, "wifi", test_spec()};
  auto p = [&]() -> Task<void> { co_await nic.receive(200'000); };  // 200 ms
  sim.spawn(p());
  sim.run();
  nic.power().flush();
  EXPECT_NEAR(acct.joules(0, Routine::kNetwork), 0.5 * 0.2 + 0.5 * 0.1, 1e-9);
  EXPECT_EQ(nic.bytes_received(), 200'000u);
}

TEST(Nic, IdleAfterTailExpires) {
  sim::Simulator sim;
  EnergyAccountant acct;
  Nic nic{sim, acct, "wifi", test_spec()};
  auto p = [&]() -> Task<void> {
    co_await nic.transmit(1'000);
    co_await sim::Delay{Duration::sec(1)};
  };
  sim.spawn(p());
  sim.run();
  nic.power().flush();
  // Energy bounded: 1 ms tx + 100 ms tail only; the remaining ~0.9 s idle at 0 W.
  EXPECT_NEAR(acct.joules(0, Routine::kNetwork), 0.001 * 1.0 + 0.1 * 0.5, 1e-9);
}

TEST(Nic, ContentionWaitCoalescesWithAPendingTail) {
  sim::Simulator sim;
  EnergyAccountant acct;
  net::ApConfig cfg;
  cfg.bytes_per_second = 1.0e9;  // never the bottleneck: airtime = nic wire
  cfg.queue_depth = 8;
  net::SharedAccessPoint ap{sim, cfg};
  Nic b{sim, acct, "nic_b", test_spec()};  // component 0
  Nic a{sim, acct, "nic_a", test_spec()};  // component 1
  b.attach_medium(ap, sim::Rng{1}, 0);
  a.attach_medium(ap, sim::Rng{2}, 1);

  auto pb = [&]() -> Task<void> {
    co_await b.transmit(20'000);            // [0, 20 ms)
    co_await sim::Delay{Duration::ms(30)};  // resume at 50 ms, mid-tail
    co_await b.transmit(50'000);            // channel busy until 120 ms
  };
  auto pa = [&]() -> Task<void> { co_await a.transmit(100'000); };
  sim.spawn(pb());
  sim.spawn(pa());
  sim.run();
  b.power().flush();
  a.power().flush();

  // B: tx [0,20) at 1 W, then one seamless 0.5 W stretch [20,120) — the armed
  // tail coalesces with the contention listen when B re-transmits at 50 ms —
  // then tx [120,170) and a final tail [170,270).
  EXPECT_NEAR(acct.joules(0, Routine::kNetwork), 0.02 + 0.05 + 0.05 + 0.05, 1e-9);
  // A: listens [0,20) at tail power, tx [20,120), tail [120,220).
  EXPECT_NEAR(acct.joules(1, Routine::kNetwork), 0.01 + 0.1 + 0.05, 1e-9);

  ASSERT_NE(b.airtime_stats(), nullptr);
  ASSERT_NE(a.airtime_stats(), nullptr);
  EXPECT_EQ(b.airtime_stats()->airtime_wait, Duration::ms(70));
  EXPECT_EQ(b.airtime_stats()->grants, 2u);
  EXPECT_EQ(a.airtime_stats()->airtime_wait, Duration::ms(20));
  EXPECT_EQ(a.airtime_stats()->grants, 1u);
  EXPECT_EQ(b.bytes_sent(), 70'000u);
  EXPECT_EQ(a.bytes_sent(), 100'000u);
}

TEST(Nic, ReceiveArrivingExactlyAtTailExpiryRestartsTheRadio) {
  auto run = [](bool with_ap) {
    sim::Simulator sim;
    EnergyAccountant acct;
    net::ApConfig cfg;
    cfg.bytes_per_second = 1.0e9;
    net::SharedAccessPoint ap{sim, cfg};
    Nic nic{sim, acct, "wifi", test_spec()};
    if (with_ap) nic.attach_medium(ap, sim::Rng{7}, 0);
    auto p = [&]() -> Task<void> {
      co_await nic.transmit(1'000);            // tx [0, 1 ms), tail armed to 101 ms
      co_await sim::Delay{Duration::ms(100)};  // resume exactly as the tail expires
      co_await nic.receive(50'000);            // rx [101, 151 ms)
    };
    sim.spawn(p());
    sim.run();
    nic.power().flush();
    return acct.joules(0, Routine::kNetwork);
  };
  // tx 1 ms at 1 W, one full 100 ms tail, rx 50 ms at 0.5 W, final 100 ms tail.
  const double expected = 0.001 + 0.05 + 0.025 + 0.05;
  EXPECT_NEAR(run(false), expected, 1e-9);
  // An uncontended shared AP must not perturb the trace.
  EXPECT_NEAR(run(true), expected, 1e-9);
}

}  // namespace
}  // namespace iotsim::hw
