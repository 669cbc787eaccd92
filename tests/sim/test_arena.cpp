// The coroutine-frame arena: bump allocation, size-class freelist reuse,
// scope nesting, and the owner-tagged frame path that lets frames outlive
// the ArenaScope they were allocated under.
#include "sim/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/process.h"
#include "sim/simulator.h"

namespace iotsim::sim {
namespace {

TEST(Arena, AllocateReservesChunksAndTracksLiveBlocks) {
  Arena a;
  EXPECT_EQ(a.bytes_reserved(), 0u);
  EXPECT_EQ(a.live_blocks(), 0u);
  void* p = a.allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_GT(a.bytes_reserved(), 0u);
  EXPECT_EQ(a.live_blocks(), 1u);
  std::memset(p, 0xAB, 100);  // the block must be writable
  a.deallocate(p, 100);
  EXPECT_EQ(a.live_blocks(), 0u);
}

TEST(Arena, FreelistRecyclesSameSizeClass) {
  Arena a;
  void* p = a.allocate(128);
  a.deallocate(p, 128);
  // Same size class ⇒ the freed block comes straight back; the arena does
  // not grow during steady-state frame churn.
  const std::size_t reserved = a.bytes_reserved();
  void* q = a.allocate(128);
  EXPECT_EQ(q, p);
  EXPECT_EQ(a.bytes_reserved(), reserved);
  a.deallocate(q, 128);
}

TEST(Arena, ManyBlocksSpanChunks) {
  Arena a;
  std::vector<void*> blocks;
  // 2k blocks of 1 KiB ⇒ ~2 MiB, far beyond one 256 KiB chunk.
  for (int i = 0; i < 2000; ++i) blocks.push_back(a.allocate(1024));
  EXPECT_EQ(a.live_blocks(), blocks.size());
  EXPECT_GE(a.bytes_reserved(), blocks.size() * 1024);
  for (void* p : blocks) a.deallocate(p, 1024);
  EXPECT_EQ(a.live_blocks(), 0u);
}

TEST(ArenaScope, InstallsAndRestoresNested) {
  // Frames come from the innermost scope's arena; leaving a scope restores
  // the one it shadowed.
  Arena outer, inner;
  {
    ArenaScope s1{outer};
    void* a = frame_allocate(64);
    EXPECT_EQ(outer.live_blocks(), 1u);
    {
      ArenaScope s2{inner};
      void* b = frame_allocate(64);
      EXPECT_EQ(inner.live_blocks(), 1u);
      EXPECT_EQ(outer.live_blocks(), 1u);
      frame_free(b);
    }
    void* c = frame_allocate(64);
    EXPECT_EQ(outer.live_blocks(), 2u);
    EXPECT_EQ(inner.live_blocks(), 0u);
    frame_free(a);
    frame_free(c);
  }
  void* d = frame_allocate(64);  // no scope left: the global heap
  EXPECT_EQ(outer.live_blocks(), 0u);
  frame_free(d);
}

TEST(FrameAlloc, FallsBackToHeapWithoutScope) {
  void* frame = frame_allocate(256);
  ASSERT_NE(frame, nullptr);
  std::memset(frame, 0x5A, 256);
  frame_free(frame);  // must route to the global heap, not any arena
}

TEST(FrameAlloc, UsesScopeArenaAndOutlivesScope) {
  Arena a;
  void* frame = nullptr;
  {
    ArenaScope scope{a};
    frame = frame_allocate(512);
    ASSERT_NE(frame, nullptr);
    EXPECT_EQ(a.live_blocks(), 1u);
  }
  // The scope is gone but the header still tags the owner: freeing outside
  // any scope (or under a different one) must return the block to `a`.
  Arena other;
  ArenaScope scope{other};
  frame_free(frame);
  EXPECT_EQ(a.live_blocks(), 0u);
  EXPECT_EQ(other.live_blocks(), 0u);
}

TEST(ArenaAllocator, ContainersDrawFromTheArena) {
  Arena a;
  {
    std::deque<int, ArenaAllocator<int>> d{ArenaAllocator<int>{&a}};
    for (int i = 0; i < 1000; ++i) d.push_back(i);
    EXPECT_GT(a.live_blocks(), 0u);
    EXPECT_EQ(d.front(), 0);
    EXPECT_EQ(d.back(), 999);
  }
  // Container destruction returns every spine block to the arena.
  EXPECT_EQ(a.live_blocks(), 0u);
}

TEST(ArenaAllocator, NullArenaFallsBackToTheGlobalHeap) {
  Arena a;
  {
    std::deque<int, ArenaAllocator<int>> d{ArenaAllocator<int>{}};
    for (int i = 0; i < 100; ++i) d.push_back(i);
    EXPECT_EQ(a.live_blocks(), 0u);  // nothing routed into any arena
    EXPECT_EQ(d.size(), 100u);
  }
}

TEST(ArenaAllocator, EqualityFollowsTheArenaPointer) {
  Arena a, b;
  const ArenaAllocator<int> ia{&a};
  const ArenaAllocator<double> da{&a};
  const ArenaAllocator<int> ib{&b};
  EXPECT_TRUE(ia == da);  // rebind to another T, same arena
  EXPECT_FALSE(ia == ib);
  EXPECT_EQ(ArenaAllocator<int>{}.arena(), nullptr);
}

TEST(FrameAlloc, CoroutineFramesComeFromTheScopeArena) {
  Arena a;
  int ran = 0;
  {
    ArenaScope scope{a};
    Simulator sim;
    auto proc = [&]() -> Task<void> {
      co_await Delay{Duration::ms(1)};
      ++ran;
    };
    sim.spawn(proc());
    EXPECT_GT(a.live_blocks(), 0u);  // the frame lives in the arena
    sim.run();
    EXPECT_EQ(ran, 1);
    // The simulator retains completed process frames until destruction.
  }
  EXPECT_EQ(a.live_blocks(), 0u);  // frames destroyed ⇒ returned to the arena
}

}  // namespace
}  // namespace iotsim::sim
