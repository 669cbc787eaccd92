#include "energy/battery.h"

#include <gtest/gtest.h>

namespace iotsim::energy {
namespace {

TEST(Battery, CapacityConversions) {
  Battery b{5.0, 1.0};  // 5 Wh fully usable
  EXPECT_DOUBLE_EQ(b.usable_joules(), 18000.0);
}

TEST(Battery, UsableFractionLimitsDepth) {
  Battery b{10.0, 0.8};
  EXPECT_DOUBLE_EQ(b.usable_joules(), 10.0 * 3600.0 * 0.8);
}

TEST(Battery, DrainAndStateOfCharge) {
  Battery b{1.0, 1.0};  // 3600 J
  EXPECT_DOUBLE_EQ(b.state_of_charge(), 1.0);
  EXPECT_DOUBLE_EQ(b.drain_clamped(1800.0), 1800.0);
  EXPECT_DOUBLE_EQ(b.state_of_charge(), 0.5);
  EXPECT_FALSE(b.depleted());
  EXPECT_DOUBLE_EQ(b.drain_clamped(1800.0), 1800.0);
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.state_of_charge(), 0.0);
}

TEST(Battery, ChargeFloorsAtZero) {
  Battery b{1.0, 1.0};
  (void)b.drain_clamped(10000.0);
  EXPECT_DOUBLE_EQ(b.state_of_charge(), 0.0);
  (void)b.recharge(b.usable_joules());
  EXPECT_DOUBLE_EQ(b.state_of_charge(), 1.0);
}

TEST(Battery, LifetimeAtConstantDraw) {
  Battery b{5.0, 0.9};  // 16200 J usable
  EXPECT_NEAR(b.lifetime(2.0).to_seconds(), 8100.0, 1e-9);
}

// --- online semantics (env::PowerSource drives these during a run) ---

TEST(Battery, DrainClampedFloorsAtStored) {
  Battery b{1.0, 1.0};  // 3600 J usable
  EXPECT_DOUBLE_EQ(b.stored_joules(), 3600.0);
  EXPECT_DOUBLE_EQ(b.drain_clamped(600.0), 600.0);
  EXPECT_DOUBLE_EQ(b.stored_joules(), 3000.0);
  // More than remains: only the stored energy comes out, charge floors.
  EXPECT_DOUBLE_EQ(b.drain_clamped(5000.0), 3000.0);
  EXPECT_DOUBLE_EQ(b.stored_joules(), 0.0);
  EXPECT_TRUE(b.depleted());
  EXPECT_DOUBLE_EQ(b.drain_clamped(1.0), 0.0);
}

TEST(Battery, DrainClampedRespectsUsableFraction) {
  Battery b{1.0, 0.5};  // 1800 J usable of 3600 J nameplate
  EXPECT_DOUBLE_EQ(b.stored_joules(), 1800.0);
  EXPECT_DOUBLE_EQ(b.drain_clamped(3600.0), 1800.0);
  EXPECT_TRUE(b.depleted());
}

TEST(Battery, PartialRechargeFromHarvest) {
  Battery b{1.0, 1.0};
  (void)b.drain_clamped(1000.0);
  EXPECT_DOUBLE_EQ(b.recharge(400.0), 400.0);
  EXPECT_DOUBLE_EQ(b.stored_joules(), 3000.0);
  // Harvest beyond full: only the deficit stores.
  EXPECT_DOUBLE_EQ(b.recharge(1000.0), 600.0);
  EXPECT_DOUBLE_EQ(b.stored_joules(), 3600.0);
  EXPECT_DOUBLE_EQ(b.state_of_charge(), 1.0);
}

TEST(Battery, DrainRechargeRoundTripKeepsStateOfCharge) {
  Battery b{2.0, 0.9};
  const double stored = b.stored_joules();
  EXPECT_DOUBLE_EQ(b.drain_clamped(500.0), 500.0);
  EXPECT_DOUBLE_EQ(b.recharge(500.0), 500.0);
  EXPECT_DOUBLE_EQ(b.stored_joules(), stored);
}

TEST(Battery, LifetimeAtNonPositiveDrawNeverDepletes) {
  Battery b{5.0, 0.9};
  EXPECT_EQ(b.lifetime(0.0), sim::Duration::max());
  EXPECT_EQ(b.lifetime(-0.5), sim::Duration::max());
}

TEST(Battery, SavingsTranslateToLifetimeMultiplier) {
  // The paper's headline made concrete: a 85% saving is ~6.7× battery life.
  Battery b{5.0};
  const double base_w = 3.0;
  const double com_w = base_w * (1.0 - 0.85);
  const double multiplier =
      b.lifetime(com_w).to_seconds() / b.lifetime(base_w).to_seconds();
  EXPECT_NEAR(multiplier, 1.0 / 0.15, 1e-9);
}

}  // namespace
}  // namespace iotsim::energy
