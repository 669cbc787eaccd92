#include "sim/join.h"

#include <exception>
#include <utility>

namespace iotsim::sim {

namespace {

Task<void> run_and_arrive(Task<void> t, JoinCounter* counter) {
  std::exception_ptr error;
  try {
    co_await t;
  } catch (...) {
    error = std::current_exception();
  }
  counter->arrive();
  if (error) std::rethrow_exception(error);
}

}  // namespace

Task<void> when_all(Simulator& sim, Task<void> a, Task<void> b) {
  JoinCounter counter{2};
  const Task<void> first = run_and_arrive(std::move(a), &counter);
  const Task<void> second = run_and_arrive(std::move(b), &counter);
  sim.launch(first);
  sim.launch(second);
  co_await counter.wait();
  first.check();
  second.check();
}

}  // namespace iotsim::sim
