#include "trace/mips_counter.h"

#include <gtest/gtest.h>

namespace iotsim::trace {
namespace {

TEST(MipsCounter, AccumulatesPerOwner) {
  MipsCounter c;
  c.add("step_counter", 1'000'000);
  c.add("step_counter", 2'000'000);
  c.add("jpeg", 5'000'000);
  EXPECT_EQ(c.instructions("step_counter"), 3'000'000u);
  EXPECT_EQ(c.instructions("jpeg"), 5'000'000u);
}

TEST(MipsCounter, UnknownOwnerIsZero) {
  MipsCounter c;
  EXPECT_EQ(c.instructions("nope"), 0u);
}

}  // namespace
}  // namespace iotsim::trace
