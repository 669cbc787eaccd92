#include "sim/sim_time.h"

#include <gtest/gtest.h>

namespace iotsim::sim {
namespace {

TEST(Duration, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::us(1).count_ns(), 1'000);
  EXPECT_EQ(Duration::ms(1).count_ns(), 1'000'000);
  EXPECT_EQ(Duration::sec(1).count_ns(), 1'000'000'000);
  EXPECT_EQ(Duration::sec(1), Duration::ms(1000));
  EXPECT_EQ(Duration::ms(1), Duration::us(1000));
}

TEST(Duration, FloatingFactoriesRound) {
  EXPECT_EQ(Duration::from_ms(1.5).count_ns(), 1'500'000);
  EXPECT_EQ(Duration::from_us(0.1).count_ns(), 100);
  EXPECT_EQ(Duration::from_seconds(2.5), Duration::ms(2500));
  // Rounds to nearest, not truncates.
  EXPECT_EQ(Duration::from_us(0.0006).count_ns(), 1);
}

TEST(Duration, Arithmetic) {
  const auto a = Duration::ms(3);
  const auto b = Duration::ms(2);
  EXPECT_EQ(a + b, Duration::ms(5));
  EXPECT_EQ(a - b, Duration::ms(1));
  EXPECT_EQ(a * 4, Duration::ms(12));
  EXPECT_EQ(a / 3, Duration::ms(1));
}

TEST(Duration, Comparisons) {
  EXPECT_LT(Duration::us(999), Duration::ms(1));
  EXPECT_GT(Duration::zero(), Duration::ms(-1));
  EXPECT_TRUE(Duration::ms(-1).is_negative());
  EXPECT_TRUE(Duration::zero().is_zero());
}

TEST(Duration, Conversions) {
  EXPECT_DOUBLE_EQ(Duration::ms(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::us(1500).to_ms(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::ns(1500).to_us(), 1.5);
}

TEST(SimTime, OriginAndOffsets) {
  const auto t0 = SimTime::origin();
  const auto t1 = t0 + Duration::ms(10);
  EXPECT_EQ((t1 - t0), Duration::ms(10));
  EXPECT_LT(t0, t1);
  EXPECT_LT(t1, SimTime::infinite());
}

TEST(SimTime, ToString) {
  EXPECT_EQ(SimTime::origin().to_string(), "t=0s");
  EXPECT_FALSE(Duration::ms(3).to_string().empty());
  EXPECT_FALSE(Duration::us(3).to_string().empty());
  EXPECT_FALSE(Duration::ns(3).to_string().empty());
  EXPECT_FALSE(Duration::sec(3).to_string().empty());
}

}  // namespace
}  // namespace iotsim::sim
