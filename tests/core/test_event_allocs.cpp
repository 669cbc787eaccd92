// Guard against heap allocations creeping back into the event path.
//
// This binary replaces the global operator new (scalar and array) with a
// counting one, so it is its own test executable: the count covers
// everything the process allocates. It runs one single-hub Baseline
// scenario (an interrupt and a CPU transfer per sample, the kernel's
// busiest path) at two lengths and divides the extra allocations by the
// extra events dispatched. Set-up and result assembly cost the same in
// both runs and cancel out, so what is left is the per-event cost of the
// dispatch loop and the coroutines above it. The count is deterministic:
// the scenario runs inline on this thread.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "core/scenario_runner.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
// The array form is replaced too: a sanitizer runtime would otherwise serve
// it without passing through the counting operator new.
void* operator new[](std::size_t size) { return operator new(size); }
// The replacement operator new above allocates with malloc, so free is the
// matching release. GCC's -Wmismatched-new-delete pairs any operator new
// with operator delete only, and reports this free once it inlines these
// functions into a caller: a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace iotsim::core {
namespace {

struct Measured {
  std::uint64_t allocations = 0;
  std::uint64_t events = 0;
};

Measured run_baseline(int windows) {
  auto scenario = Scenario::builder()
                      .apps({apps::AppId::kA2StepCounter})
                      .scheme(Scheme::kBaseline)
                      .windows(windows)
                      .build();
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const ScenarioResult result = run_scenario(std::move(scenario));
  return {g_allocations.load(std::memory_order_relaxed) - before,
          result.energy.kernel().events_dispatched};
}

// Measured on this scenario: 0.00094 allocations per event (60 over 64,140
// events), 15 per window, three of them the window's sample columns (the
// column array, then a time and a value buffer reserved for the full
// window); 0.0015 while the window's samples sat in a vector that grew by
// doubling; 0.0084 while the pending-sample FIFO was a std::deque (one
// 504-byte node per nine samples at ~16 events a sample); 0.07 while every
// sample allocated a channel vector; 1.51 when every notify built a
// std::deque, every processor wait a std::list node and every when_all a
// shared counter. One allocation per sample would put the count near 0.07
// again, and one per nine samples near 0.008.
constexpr double kMaxAllocationsPerEvent = 0.0014;

TEST(EventPathAllocations, BaselineScenarioStaysUnderBound) {
  run_baseline(1);  // first-use statics allocate once; keep them out of both runs
  const Measured short_run = run_baseline(2);
  const Measured long_run = run_baseline(6);
  ASSERT_GT(long_run.events, short_run.events);
  ASSERT_GE(long_run.allocations, short_run.allocations);
  const double per_event = static_cast<double>(long_run.allocations - short_run.allocations) /
                           static_cast<double>(long_run.events - short_run.events);
  RecordProperty("allocations_per_event", std::to_string(per_event));
  EXPECT_LT(per_event, kMaxAllocationsPerEvent)
      << (long_run.allocations - short_run.allocations) << " allocations over "
      << (long_run.events - short_run.events) << " events";
}

}  // namespace
}  // namespace iotsim::core
