#include "sim/process.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.h"

namespace iotsim::sim {
namespace {

TEST(Simulator, DelayAdvancesClock) {
  Simulator sim;
  SimTime observed;
  auto proc = [&]() -> Task<void> {
    co_await Delay{Duration::ms(5)};
    observed = sim.now();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(observed, SimTime::origin() + Duration::ms(5));
  EXPECT_TRUE(sim.all_processes_done());
}

TEST(Simulator, SequentialDelaysAccumulate) {
  Simulator sim;
  std::vector<double> stamps;
  auto proc = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await Delay{Duration::ms(10)};
      stamps.push_back(sim.now().to_ms());
    }
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(stamps, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(Simulator, ChildTaskReturnsValue) {
  Simulator sim;
  int result = 0;
  auto child = [&]() -> Task<int> {
    co_await Delay{Duration::ms(1)};
    co_return 42;
  };
  auto parent = [&]() -> Task<void> { result = co_await child(); };
  sim.spawn(parent());
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Simulator, NestedChildrenComposeTime) {
  Simulator sim;
  auto leaf = []() -> Task<int> {
    co_await Delay{Duration::ms(2)};
    co_return 1;
  };
  auto mid = [&]() -> Task<int> {
    int sum = 0;
    for (int i = 0; i < 3; ++i) sum += co_await leaf();
    co_return sum;
  };
  int total = 0;
  SimTime end;
  auto top = [&]() -> Task<void> {
    total = co_await mid();
    end = sim.now();
  };
  sim.spawn(top());
  sim.run();
  EXPECT_EQ(total, 3);
  EXPECT_EQ(end, SimTime::origin() + Duration::ms(6));
}

TEST(Simulator, TwoProcessesInterleave) {
  Simulator sim;
  std::vector<int> order;
  auto proc = [&](int id, Duration step) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      co_await Delay{step};
      order.push_back(id);
    }
  };
  sim.spawn(proc(1, Duration::ms(3)));  // fires at 3, 6
  sim.spawn(proc(2, Duration::ms(4)));  // fires at 4, 8
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Simulator, SignalWakesAllWaiters) {
  Simulator sim;
  Signal sig;
  int woken = 0;
  auto waiter = [&]() -> Task<void> {
    co_await sig.wait();
    ++woken;
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    sig.notify_all();
  };
  sim.spawn(waiter());
  sim.spawn(waiter());
  sim.spawn(notifier());
  sim.run();
  EXPECT_EQ(woken, 2);
}

TEST(Simulator, MutexSerializesFifo) {
  Simulator sim;
  SimMutex mutex;
  std::vector<std::pair<int, double>> log;
  auto proc = [&](int id) -> Task<void> {
    co_await mutex.acquire();
    log.emplace_back(id, sim.now().to_ms());
    co_await Delay{Duration::ms(10)};
    mutex.release();
  };
  sim.spawn(proc(1));
  sim.spawn(proc(2));
  sim.spawn(proc(3));
  sim.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<int, double>{1, 0.0}));
  EXPECT_EQ(log[1], (std::pair<int, double>{2, 10.0}));
  EXPECT_EQ(log[2], (std::pair<int, double>{3, 20.0}));
}

TEST(Simulator, MutexUncontendedIsImmediate) {
  Simulator sim;
  SimMutex mutex;
  double acquired_at = -1.0;
  auto proc = [&]() -> Task<void> {
    co_await mutex.acquire();
    acquired_at = sim.now().to_ms();
    mutex.release();
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(acquired_at, 0.0);
  EXPECT_FALSE(mutex.locked());
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  auto proc = [&]() -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await Delay{Duration::ms(10)};
      ++fired;
    }
  };
  sim.spawn(proc());
  sim.run_until(SimTime::origin() + Duration::ms(35));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), SimTime::origin() + Duration::ms(35));
}

TEST(Simulator, StopAbortsRun) {
  Simulator sim;
  int fired = 0;
  auto proc = [&]() -> Task<void> {
    for (int i = 0; i < 100; ++i) {
      co_await Delay{Duration::ms(1)};
      if (++fired == 5) sim.stop();
    }
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_EQ(fired, 5);
}

TEST(Simulator, ExceptionIsCapturedAndRethrown) {
  Simulator sim;
  auto proc = []() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    throw std::runtime_error("boom");
  };
  sim.spawn(proc());
  sim.run();
  EXPECT_THROW(sim.check_processes(), std::runtime_error);
}

TEST(Simulator, ChildExceptionPropagatesToParent) {
  Simulator sim;
  bool caught = false;
  auto child = []() -> Task<int> {
    co_await Delay{Duration::ms(1)};
    throw std::runtime_error("child boom");
  };
  auto parent = [&]() -> Task<void> {
    try {
      (void)co_await child();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  };
  sim.spawn(parent());
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulator, ZeroDelayYieldsButKeepsTime) {
  Simulator sim;
  std::vector<int> order;
  auto a = [&]() -> Task<void> {
    order.push_back(1);
    co_await Delay{Duration::zero()};
    order.push_back(3);
  };
  auto b = [&]() -> Task<void> {
    order.push_back(2);
    co_return;
  };
  sim.spawn(a());
  sim.spawn(b());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::origin());
}

}  // namespace
}  // namespace iotsim::sim
