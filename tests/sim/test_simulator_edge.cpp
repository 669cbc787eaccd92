// Edge-case coverage for the simulation kernel: re-waiting signals, mutex
// storms, and horizon interactions.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/join.h"
#include "sim/simulator.h"

namespace iotsim::sim {
namespace {

TEST(SimulatorEdge, RunUntilThenContinue) {
  Simulator sim;
  std::vector<double> stamps;
  auto proc = [&]() -> Task<void> {
    for (int i = 0; i < 4; ++i) {
      co_await Delay{Duration::ms(10)};
      stamps.push_back(sim.now().to_ms());
    }
  };
  sim.spawn(proc());
  sim.run_until(SimTime::origin() + Duration::ms(25));
  EXPECT_EQ(stamps.size(), 2u);
  sim.run();  // resume to completion
  EXPECT_EQ(stamps.size(), 4u);
  EXPECT_DOUBLE_EQ(stamps.back(), 40.0);
}

TEST(SimulatorEdge, SignalRewaitSeesOnlyNextNotify) {
  Simulator sim;
  Signal sig;
  int wakes = 0;
  auto waiter = [&]() -> Task<void> {
    co_await sig.wait();
    ++wakes;
    co_await sig.wait();
    ++wakes;
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    sig.notify_all();  // first wake
    co_await Delay{Duration::ms(1)};
    sig.notify_all();  // second wake
  };
  sim.spawn(waiter());
  sim.spawn(notifier());
  sim.run();
  EXPECT_EQ(wakes, 2);
}

TEST(SimulatorEdge, SignalWakesWaitersInFifoOrder) {
  Simulator sim;
  Signal sig;
  std::vector<int> order;
  auto waiter = [&](int id) -> Task<void> {
    co_await Delay{Duration::us(id)};  // begin waiting in id order
    co_await sig.wait();
    order.push_back(id);
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    sig.notify_all();
  };
  constexpr int kWaiters = 16;
  for (int id = kWaiters - 1; id >= 0; --id) sim.spawn(waiter(id));
  sim.spawn(notifier());
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kWaiters));
  for (int id = 0; id < kWaiters; ++id) EXPECT_EQ(order[static_cast<std::size_t>(id)], id);
}

TEST(SimulatorEdge, WaitFromInsideAWakeupJoinsTheNextNotify) {
  // The re-wait happens at the notifying timestamp; the first notify must
  // not wake it again, and a second notify at the same time must.
  Simulator sim;
  Signal sig;
  int wakes = 0;
  std::size_t waiting_after_first = 0;
  auto waiter = [&]() -> Task<void> {
    co_await sig.wait();
    ++wakes;
    co_await sig.wait();
    ++wakes;
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    sig.notify_all();
    co_await Delay{Duration::zero()};  // the woken waiter runs and re-waits first
    waiting_after_first = sig.waiter_count();
    EXPECT_EQ(wakes, 1);
    sig.notify_all();
  };
  sim.spawn(waiter());
  sim.spawn(notifier());
  sim.run();
  EXPECT_EQ(waiting_after_first, 1u);
  EXPECT_EQ(wakes, 2);
  EXPECT_EQ(sim.now(), SimTime::origin() + Duration::ms(1));
}

TEST(SimulatorEdge, NotifyWithNoWaitersSchedulesNothing) {
  Simulator sim;
  Signal sig;
  std::size_t pending = 1;
  auto notifier = [&]() -> Task<void> {
    sig.notify_all();
    pending = sim.stats().pending_events;
    co_return;
  };
  sim.spawn(notifier());
  sim.run();
  EXPECT_EQ(pending, 0u);
  EXPECT_EQ(sim.stats().events_dispatched, 1u);  // only the spawn
}

TEST(SimulatorEdge, MovedFromSignalKeepsNoWaiters) {
  Simulator sim;
  Signal from;
  bool woke = false;
  auto waiter = [&]() -> Task<void> {
    co_await from.wait();
    woke = true;
  };
  sim.spawn(waiter());
  sim.run();
  ASSERT_EQ(from.waiter_count(), 1u);

  Signal to{std::move(from)};
  EXPECT_EQ(from.waiter_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(to.waiter_count(), 1u);
  from.notify_all();  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(sim.stats().pending_events, 0u);
  sim.run();
  EXPECT_FALSE(woke);

  to.notify_all();
  sim.run();
  EXPECT_TRUE(woke);
  EXPECT_TRUE(sim.all_processes_done());
}

TEST(SimulatorEdge, NotifyWithNoWaitersIsLost) {
  // Signals are condition variables, not latches: an early notify is lost.
  Simulator sim;
  Signal sig;
  bool woke = false;
  auto notifier = [&]() -> Task<void> {
    sig.notify_all();
    co_return;
  };
  auto waiter = [&]() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    co_await sig.wait();
    woke = true;
  };
  sim.spawn(notifier());
  sim.spawn(waiter());
  sim.run();
  EXPECT_FALSE(woke);
  EXPECT_EQ(sim.live_processes(), 1u);
}

TEST(SimulatorEdge, MutexStormStaysFifoAndExclusive) {
  Simulator sim;
  SimMutex mutex;
  int inside = 0;
  int max_inside = 0;
  std::vector<int> order;
  auto proc = [&](int id) -> Task<void> {
    co_await mutex.acquire();
    order.push_back(id);
    ++inside;
    max_inside = std::max(max_inside, inside);
    co_await Delay{Duration::us(100)};
    --inside;
    mutex.release();
  };
  for (int i = 0; i < 50; ++i) sim.spawn(proc(i));
  sim.run();
  EXPECT_EQ(max_inside, 1);
  ASSERT_EQ(order.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorEdge, WhenAllSurvivesImmediateTasks) {
  Simulator sim;
  auto instant = []() -> Task<void> { co_return; };
  auto slow = []() -> Task<void> { co_await Delay{Duration::ms(3)}; };
  bool done = false;
  auto top = [&]() -> Task<void> {
    co_await when_all(sim, instant(), when_all(sim, slow(), instant()));
    done = true;
  };
  sim.spawn(top());
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), SimTime::origin() + Duration::ms(3));
}

}  // namespace
}  // namespace iotsim::sim
