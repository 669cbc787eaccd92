#include "trace/memory_profiler.h"

#include <gtest/gtest.h>

namespace iotsim::trace {
namespace {

TEST(MemoryProfiler, TracksLiveAndPeakHeap) {
  MemoryProfiler p;
  p.on_alloc(100);
  p.on_alloc(200);
  EXPECT_EQ(p.live_heap_bytes(), 300u);
  EXPECT_EQ(p.peak_heap_bytes(), 300u);
  p.on_free(200);
  EXPECT_EQ(p.live_heap_bytes(), 100u);
  EXPECT_EQ(p.peak_heap_bytes(), 300u);  // peak survives frees
}

TEST(MemoryProfiler, StackTracking) {
  MemoryProfiler p;
  {
    StackFrame outer{p, 128};
    EXPECT_EQ(p.live_stack_bytes(), 128u);
    {
      StackFrame inner{p, 64};
      EXPECT_EQ(p.live_stack_bytes(), 192u);
    }
    EXPECT_EQ(p.live_stack_bytes(), 128u);
  }
  EXPECT_EQ(p.live_stack_bytes(), 0u);
  EXPECT_EQ(p.peak_stack_bytes(), 192u);
}

TEST(Workspace, AllocationsAreProfiled) {
  MemoryProfiler p;
  {
    Workspace ws{p};
    double* buf = ws.alloc<double>(1000);
    ASSERT_NE(buf, nullptr);
    buf[0] = 1.0;
    buf[999] = 2.0;
    EXPECT_EQ(p.live_heap_bytes(), 8000u);
    EXPECT_EQ(p.allocation_count(), 1u);
  }
  EXPECT_EQ(p.live_heap_bytes(), 0u);
  EXPECT_EQ(p.peak_heap_bytes(), 8000u);
}

TEST(Workspace, ClearReleasesAll) {
  MemoryProfiler p;
  Workspace ws{p};
  ws.alloc<int>(10);
  ws.alloc<float>(20);
  ws.clear();
  EXPECT_EQ(p.live_heap_bytes(), 0u);
  // Peak reflects the high-water mark of both buffers.
  EXPECT_EQ(p.peak_heap_bytes(), 10u * sizeof(int) + 20u * sizeof(float));
}

TEST(Workspace, PeakReflectsSimultaneousBuffers) {
  MemoryProfiler p;
  Workspace ws{p};
  ws.alloc<std::uint8_t>(100);
  ws.clear();
  ws.alloc<std::uint8_t>(50);
  ws.clear();
  EXPECT_EQ(p.peak_heap_bytes(), 100u);
}

}  // namespace
}  // namespace iotsim::trace
