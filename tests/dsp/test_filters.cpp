#include "dsp/filters.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

namespace iotsim::dsp {
namespace {

std::vector<double> tone(double fs, double f, std::size_t n, double amp = 1.0) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amp * std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i) / fs);
  }
  return out;
}

double steady_state_amplitude(Biquad& filter, const std::vector<double>& signal) {
  double peak = 0.0;
  for (std::size_t i = 0; i < signal.size(); ++i) {
    const double y = filter.process(signal[i]);
    if (i > signal.size() / 2) peak = std::max(peak, std::abs(y));
  }
  return peak;
}

TEST(Biquad, LowPassPassesLowBlocksHigh) {
  auto lp1 = Biquad::low_pass(1000.0, 50.0);
  auto lp2 = Biquad::low_pass(1000.0, 50.0);
  const double low = steady_state_amplitude(lp1, tone(1000, 5, 4000));
  const double high = steady_state_amplitude(lp2, tone(1000, 400, 4000));
  EXPECT_GT(low, 0.9);
  EXPECT_LT(high, 0.05);
}

TEST(Biquad, HighPassPassesHighBlocksLow) {
  auto hp1 = Biquad::high_pass(1000.0, 100.0);
  auto hp2 = Biquad::high_pass(1000.0, 100.0);
  const double high = steady_state_amplitude(hp1, tone(1000, 400, 4000));
  const double low = steady_state_amplitude(hp2, tone(1000, 2, 4000));
  EXPECT_GT(high, 0.9);
  EXPECT_LT(low, 0.05);
}

TEST(Biquad, BandPassCentersOnFc) {
  auto bp_center = Biquad::band_pass(1000.0, 100.0, 2.0);
  auto bp_low = Biquad::band_pass(1000.0, 100.0, 2.0);
  auto bp_high = Biquad::band_pass(1000.0, 100.0, 2.0);
  const double at_center = steady_state_amplitude(bp_center, tone(1000, 100, 4000));
  const double at_low = steady_state_amplitude(bp_low, tone(1000, 10, 4000));
  const double at_high = steady_state_amplitude(bp_high, tone(1000, 450, 4000));
  EXPECT_GT(at_center, 0.9);
  EXPECT_LT(at_low, 0.2);
  EXPECT_LT(at_high, 0.2);
}

TEST(MovingAverage, ConvergesToConstant) {
  MovingAverage ma{8};
  double y = 0.0;
  for (int i = 0; i < 100; ++i) y = ma.process(5.0);
  EXPECT_DOUBLE_EQ(y, 5.0);
}

TEST(MovingAverage, WindowAverages) {
  MovingAverage ma{4};
  (void)ma.process(1.0);
  (void)ma.process(2.0);
  (void)ma.process(3.0);
  EXPECT_DOUBLE_EQ(ma.process(4.0), 2.5);
  EXPECT_DOUBLE_EQ(ma.process(5.0), 3.5);  // 2,3,4,5
}

TEST(MovingAverage, PartialWindowUsesAvailable) {
  MovingAverage ma{10};
  EXPECT_DOUBLE_EQ(ma.process(4.0), 4.0);
  EXPECT_DOUBLE_EQ(ma.process(6.0), 5.0);
}

TEST(Derivative, ConstantInputGivesZero) {
  Derivative d;
  double y = 0.0;
  for (int i = 0; i < 10; ++i) y = d.process(3.0);
  EXPECT_NEAR(y, 0.0, 1e-12);
}

TEST(Derivative, RampGivesConstantSlope) {
  Derivative d;
  double y = 0.0;
  for (int i = 0; i < 50; ++i) y = d.process(2.0 * i);
  // The Pan–Tompkins 5-point derivative has ramp gain 10/8: for slope 2 the
  // steady-state output is 2 · 10/8 = 2.5.
  EXPECT_NEAR(y, 2.5, 1e-9);
}

TEST(Stats, ComputesMoments) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const Stats s = compute_stats(xs);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.0), 1e-12);
}

TEST(Stats, EmptyIsZero) {
  const Stats s = compute_stats({});
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Rms, KnownValues) {
  const std::vector<double> xs{3, -3, 3, -3};
  EXPECT_DOUBLE_EQ(rms(xs), 3.0);
  EXPECT_DOUBLE_EQ(rms({}), 0.0);
}

}  // namespace
}  // namespace iotsim::dsp
