#include "core/ring_fifo.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace iotsim::core {
namespace {

TEST(RingFifo, PopsInPushOrderAcrossWrapAndGrowth) {
  RingFifo<int> q;
  std::vector<int> popped;
  int next = 0;
  // Depth wanders between 0 and 9, so the ring both wraps and doubles.
  for (int round = 0; round < 50; ++round) {
    const int pushes = round % 7 + 1;
    for (int i = 0; i < pushes; ++i) q.push_back(next++);
    const int pops = round % 5 + 1;
    for (int i = 0; i < pops && !q.empty(); ++i) popped.push_back(q.pop_front());
  }
  while (!q.empty()) popped.push_back(q.pop_front());
  ASSERT_EQ(popped.size(), static_cast<std::size_t>(next));
  for (int i = 0; i < next; ++i) EXPECT_EQ(popped[static_cast<std::size_t>(i)], i);
}

TEST(RingFifo, HoldsMoveOnlyValues) {
  RingFifo<std::unique_ptr<int>> q;
  for (int i = 0; i < 6; ++i) q.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(*q.pop_front(), i);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace iotsim::core
