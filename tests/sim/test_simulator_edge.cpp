// Edge-case coverage for the simulation kernel: re-waiting signals, mutex
// storms, and horizon interactions.
#include <gtest/gtest.h>

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
    std::vector<Task<void>> tasks;
    tasks.push_back(instant());
    tasks.push_back(slow());
    tasks.push_back(instant());
    co_await when_all(sim, std::move(tasks));
    done = true;
  };
  sim.spawn(top());
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), SimTime::origin() + Duration::ms(3));
}

}  // namespace
}  // namespace iotsim::sim
