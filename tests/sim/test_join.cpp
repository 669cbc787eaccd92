#include "sim/join.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sim/arena.h"
#include "sim/simulator.h"

namespace iotsim::sim {
namespace {

TEST(WhenAll, CompletesAtSlowestTask) {
  Simulator sim;
  auto worker = [](Duration d) -> Task<void> { co_await Delay{d}; };
  SimTime end;
  auto top = [&]() -> Task<void> {
    co_await when_all(sim, worker(Duration::ms(5)),
                      when_all(sim, worker(Duration::ms(20)), worker(Duration::ms(10))));
    end = sim.now();
  };
  sim.spawn(top());
  sim.run();
  EXPECT_EQ(end, SimTime::origin() + Duration::ms(20));
}

TEST(WhenAll, TasksRunConcurrentlyNotSequentially) {
  Simulator sim;
  auto worker = [](Duration d) -> Task<void> { co_await Delay{d}; };
  SimTime end;
  auto top = [&]() -> Task<void> {
    co_await when_all(sim, worker(Duration::ms(10)), worker(Duration::ms(10)));
    end = sim.now();
  };
  sim.spawn(top());
  sim.run();
  EXPECT_EQ(end, SimTime::origin() + Duration::ms(10));  // not 20
}

TEST(JoinCounter, WaitAfterAllArrivedReturnsImmediately) {
  Simulator sim;
  bool done = false;
  auto top = [&]() -> Task<void> {
    JoinCounter c{1};
    c.arrive();
    co_await c.wait();
    done = true;
  };
  sim.spawn(top());
  sim.run();
  EXPECT_TRUE(done);
}

TEST(WhenAll, NestedWhenAllComposes) {
  Simulator sim;
  auto worker = [](Duration d) -> Task<void> { co_await Delay{d}; };
  SimTime end;
  auto top = [&]() -> Task<void> {
    co_await when_all(sim, worker(Duration::ms(4)),
                      when_all(sim, worker(Duration::ms(7)), worker(Duration::ms(2))));
    end = sim.now();
  };
  sim.spawn(top());
  sim.run();
  EXPECT_EQ(end, SimTime::origin() + Duration::ms(7));
}

TEST(WhenAll, ChildExceptionReachesParentAfterSibling) {
  Simulator sim;
  auto failing = []() -> Task<void> {
    co_await Delay{Duration::ms(1)};
    throw std::runtime_error("child failed");
  };
  auto worker = [](Duration d) -> Task<void> { co_await Delay{d}; };
  std::string caught;
  SimTime caught_at;
  auto top = [&]() -> Task<void> {
    try {
      co_await when_all(sim, failing(), worker(Duration::ms(6)));
    } catch (const std::runtime_error& e) {
      caught = e.what();
      caught_at = sim.now();
    }
  };
  sim.spawn(top());
  sim.run();
  EXPECT_EQ(caught, "child failed");
  EXPECT_EQ(caught_at, SimTime::origin() + Duration::ms(6));  // after the sibling
  EXPECT_TRUE(sim.all_processes_done());
}

TEST(WhenAll, UncaughtChildExceptionSurfacesFromTopLevelTask) {
  Simulator sim;
  auto failing = []() -> Task<void> {
    co_await Delay{Duration::ms(2)};
    throw std::runtime_error("child failed");
  };
  auto worker = [](Duration d) -> Task<void> { co_await Delay{d}; };
  bool resumed = false;
  auto top = [&]() -> Task<void> {
    co_await when_all(sim, worker(Duration::ms(4)), failing());
    resumed = true;
  };
  sim.spawn(top());
  sim.run();
  EXPECT_FALSE(resumed);
  EXPECT_TRUE(sim.all_processes_done());
  EXPECT_EQ(sim.now(), SimTime::origin() + Duration::ms(4));
  EXPECT_THROW(sim.check_processes(), std::runtime_error);
}

TEST(WhenAll, BothChildrenThrowingRethrowsTheFirstArgument) {
  Simulator sim;
  auto failing = [](Duration d, const char* what) -> Task<void> {
    co_await Delay{d};
    throw std::runtime_error(what);
  };
  std::string caught;
  auto top = [&]() -> Task<void> {
    try {
      co_await when_all(sim, failing(Duration::ms(3), "a"), failing(Duration::ms(1), "b"));
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
  };
  sim.spawn(top());
  sim.run();
  EXPECT_EQ(caught, "a");
}

TEST(WhenAll, FinishedChildrenAreFreedWhenTheJoinCompletes) {
  // Every frame comes from the arena, so its live-block count is the
  // number of frames still held: it must not grow with the joins run.
  Arena arena;
  ArenaScope scope{arena};
  Simulator sim;
  auto worker = [](Duration d) -> Task<void> { co_await Delay{d}; };
  std::size_t after_first = 0;
  std::size_t after_last = 0;
  auto top = [&]() -> Task<void> {
    for (int i = 0; i < 10000; ++i) {
      co_await when_all(sim, worker(Duration::us(3)), worker(Duration::us(5)));
      if (i == 0) after_first = arena.live_blocks();
    }
    after_last = arena.live_blocks();
  };
  sim.spawn(top());
  sim.run();
  EXPECT_TRUE(sim.all_processes_done());
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(after_last, after_first);
}

}  // namespace
}  // namespace iotsim::sim
