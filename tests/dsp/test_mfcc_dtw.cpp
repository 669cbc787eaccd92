#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "dsp/dtw.h"
#include "dsp/mfcc.h"
#include "sim/random.h"

namespace iotsim::dsp {
namespace {

TEST(Mel, ScaleIsMonotonicAndInvertible) {
  double prev = -1.0;
  for (double hz = 50.0; hz < 4000.0; hz += 100.0) {
    const double mel = hz_to_mel(hz);
    EXPECT_GT(mel, prev);
    prev = mel;
    EXPECT_NEAR(mel_to_hz(mel), hz, 1e-6);
  }
}

std::vector<double> tone_signal(double fs, double f, double seconds) {
  std::vector<double> out(static_cast<std::size_t>(fs * seconds));
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = std::sin(2.0 * std::numbers::pi * f * static_cast<double>(i) / fs);
  }
  return out;
}

TEST(Mfcc, FrameCountMatchesHop) {
  MfccConfig cfg;
  const auto signal = tone_signal(cfg.sample_rate_hz, 440.0, 0.5);
  const auto frames = mfcc(signal, cfg);
  const std::size_t expected = (signal.size() - cfg.frame_size) / cfg.hop + 1;
  EXPECT_EQ(frames.size(), expected);
  for (const auto& f : frames) EXPECT_EQ(f.size(), cfg.coefficients);
}

TEST(Mfcc, TooShortSignalYieldsNothing) {
  MfccConfig cfg;
  EXPECT_TRUE(mfcc(std::vector<double>(cfg.frame_size - 1, 0.0), cfg).empty());
}

TEST(Mfcc, DistinguishesTones) {
  MfccConfig cfg;
  const auto low = mfcc(tone_signal(cfg.sample_rate_hz, 300.0, 0.3), cfg);
  const auto high = mfcc(tone_signal(cfg.sample_rate_hz, 1500.0, 0.3), cfg);
  const auto low2 = mfcc(tone_signal(cfg.sample_rate_hz, 300.0, 0.3), cfg);
  const double same = dtw_distance(low, low2);
  const double diff = dtw_distance(low, high);
  EXPECT_LT(same, diff * 0.5);
}

TEST(Dtw, IdenticalSequencesHaveZeroDistance) {
  const FeatureSeq a{{1, 2}, {3, 4}, {5, 6}};
  EXPECT_DOUBLE_EQ(dtw_distance(a, a), 0.0);
}

TEST(Dtw, EmptySequenceIsInfinite) {
  const FeatureSeq a{{1, 2}};
  EXPECT_TRUE(std::isinf(dtw_distance(a, {})));
  EXPECT_TRUE(std::isinf(dtw_distance({}, a)));
}

TEST(Dtw, TimeWarpedCopyIsCloserThanDifferentShape) {
  // A ramp, a time-stretched ramp, and a flipped ramp.
  FeatureSeq ramp, stretched, flipped;
  for (int i = 0; i < 10; ++i) ramp.push_back({static_cast<double>(i)});
  for (int i = 0; i < 10; ++i) {
    stretched.push_back({static_cast<double>(i)});
    stretched.push_back({static_cast<double>(i)});  // each sample doubled
  }
  for (int i = 9; i >= 0; --i) flipped.push_back({static_cast<double>(i)});
  EXPECT_LT(dtw_distance(ramp, stretched), dtw_distance(ramp, flipped));
}

TEST(Dtw, SymmetricDistance) {
  sim::Rng rng{5};
  FeatureSeq a, b;
  for (int i = 0; i < 8; ++i) a.push_back({rng.normal(), rng.normal()});
  for (int i = 0; i < 12; ++i) b.push_back({rng.normal(), rng.normal()});
  EXPECT_NEAR(dtw_distance(a, b), dtw_distance(b, a), 1e-12);
}

}  // namespace
}  // namespace iotsim::dsp
