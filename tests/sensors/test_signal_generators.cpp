#include "sensors/signal_generators.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "check/check.h"
#include "codecs/jpeg/jpeg_decoder.h"
#include "dsp/peak_detect.h"
#include "dsp/sta_lta.h"

namespace iotsim::sensors {
namespace {

using sim::Duration;
using sim::SimTime;

std::vector<double> sample_channel(SignalGenerator& gen, double seconds, double rate_hz,
                                   std::size_t channel = 0) {
  std::vector<double> out;
  const auto n = static_cast<std::size_t>(seconds * rate_hz);
  for (std::size_t i = 0; i < n; ++i) {
    Sample s;
    gen.generate(SimTime::origin() + Duration::from_seconds(static_cast<double>(i) / rate_hz), s);
    out.push_back(s.channels.at(channel));
  }
  return out;
}

TEST(AccelerometerSignal, GravityDominatesVertical) {
  AccelerometerSignal gen{{}, sim::Rng{1}};
  const auto z = sample_channel(gen, 2.0, 100.0, 2);
  double mean = 0.0;
  for (double v : z) mean += v;
  mean /= static_cast<double>(z.size());
  EXPECT_NEAR(mean, 9.81, 0.5);
}

TEST(AccelerometerSignal, StepCadenceVisibleAsPeaks) {
  AccelerometerSignal::Config cfg;
  cfg.step_rate_hz = 2.0;
  cfg.noise = 0.05;
  AccelerometerSignal gen{cfg, sim::Rng{2}};
  const auto z = sample_channel(gen, 5.0, 200.0, 2);
  dsp::PeakDetectorConfig pcfg;
  pcfg.min_distance = 60;  // ≥0.3 s apart at 200 Hz
  const auto peaks = dsp::detect_peaks(z, pcfg);
  // 2 steps/s over 5 s ⇒ ~10 peaks.
  EXPECT_NEAR(static_cast<double>(peaks.size()), 10.0, 2.0);
}

TEST(AccelerometerSignal, QuakeBurstTriggersStaLta) {
  AccelerometerSignal::Config cfg;
  cfg.quakes = {{2.0, 0.4, 3.0}};
  AccelerometerSignal gen{cfg, sim::Rng{3}};
  const auto z = sample_channel(gen, 4.0, 1000.0, 2);
  // Remove gravity+gait with a crude high-pass: first difference.
  std::vector<double> hp(z.size(), 0.0);
  for (std::size_t i = 1; i < z.size(); ++i) hp[i] = z[i] - z[i - 1];
  const auto events = dsp::sta_lta_events(hp, {});
  ASSERT_FALSE(events.empty());
  EXPECT_NEAR(static_cast<double>(events[0].onset), 2000.0, 150.0);
}

TEST(PulseSignal, BeatRateMatchesBpm) {
  PulseSignal::Config cfg;
  cfg.bpm = 90.0;
  cfg.rr_jitter = 0.0;
  PulseSignal gen{cfg, sim::Rng{4}};
  const auto v = sample_channel(gen, 10.0, 250.0);
  dsp::PeakDetectorConfig pcfg;
  pcfg.min_distance = 100;  // 0.4 s refractory at 250 Hz
  pcfg.k_stddev = 1.5;
  const auto peaks = dsp::detect_peaks(v, pcfg);
  // 90 bpm over 10 s ⇒ ~15 beats.
  EXPECT_NEAR(static_cast<double>(peaks.size()), 15.0, 2.0);
}

// The pulse model as it was before the beat cursor: every sample rescans
// every beat since t = 0. Same arithmetic and the same random draws, in the
// same order.
class RescanPulse {
 public:
  RescanPulse(PulseSignal::Config cfg, sim::Rng rng) : cfg_{cfg}, rng_{rng} {}

  double generate(double ts) {
    while (beats_.back() < ts + 2.0) {
      const double period = 60.0 / cfg_.bpm;
      double rr = period * (1.0 + cfg_.rr_jitter * rng_.uniform(-1.0, 1.0));
      if (cfg_.irregular_prob > 0.0 && rng_.bernoulli(cfg_.irregular_prob)) {
        rr *= rng_.bernoulli(0.5) ? 0.55 : 1.6;
      }
      beats_.push_back(beats_.back() + rr);
    }
    double v = 0.0;
    for (double tb : beats_) {
      const double dt = ts - tb;
      if (dt < -0.5 || dt > 0.8) continue;
      v += 1.2 * std::exp(-dt * dt / (2 * 0.008 * 0.008));
      v += 0.15 * std::exp(-(dt - 0.18) * (dt - 0.18) / (2 * 0.045 * 0.045));
      v -= 0.08 * std::exp(-(dt + 0.05) * (dt + 0.05) / (2 * 0.012 * 0.012));
    }
    return v + cfg_.noise * rng_.normal();
  }

 private:
  PulseSignal::Config cfg_;
  sim::Rng rng_;
  std::vector<double> beats_{0.35};
};

TEST(PulseSignal, BeatCursorMatchesFullRescanBitForBit) {
  PulseSignal::Config cfg;
  cfg.rr_jitter = 0.08;
  cfg.irregular_prob = 0.1;  // premature beats and pauses
  PulseSignal gen{cfg, sim::Rng{21}};
  RescanPulse oracle{cfg, sim::Rng{21}};

  // 650 simulated seconds at 250 Hz, then a jump back to t = 100 s (the
  // cursor restarts) and 20 s more.
  std::vector<SimTime> times;
  for (int i = 0; i < 650 * 250; ++i) times.push_back(SimTime::origin() + Duration::from_ms(4 * i));
  for (int i = 0; i < 20 * 250; ++i) {
    times.push_back(SimTime::origin() + Duration::sec(100) + Duration::from_ms(4 * i));
  }
  std::size_t mismatches = 0;
  std::size_t first_mismatch = times.size();
  for (std::size_t i = 0; i < times.size(); ++i) {
    Sample s;
    gen.generate(times[i], s);
    const double want = oracle.generate(times[i].to_seconds());
    if (std::bit_cast<std::uint64_t>(s.channels.at(0)) != std::bit_cast<std::uint64_t>(want)) {
      if (mismatches++ == 0) first_mismatch = i;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first at sample " << first_mismatch;
}

#if IOTSIM_CHECKS_ENABLED
TEST(PulseSignal, RejectsJitterThatCouldReorderBeats) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  PulseSignal::Config cfg;
  cfg.rr_jitter = 1.0;  // an RR interval could reach zero
  EXPECT_THROW((PulseSignal{cfg, sim::Rng{1}}), check::CheckFailure);
}
#endif

TEST(EnvironmentSignal, StaysWithinBounds) {
  EnvironmentSignal::Config cfg;
  cfg.mean = 50.0;
  cfg.walk_step = 5.0;
  cfg.noise = 5.0;
  cfg.min = 40.0;
  cfg.max = 60.0;
  EnvironmentSignal gen{cfg, sim::Rng{5}};
  for (const double v : sample_channel(gen, 10.0, 100.0)) {
    EXPECT_GE(v, 40.0);
    EXPECT_LE(v, 60.0);
  }
}

TEST(EnvironmentSignal, MeanReversionHolds) {
  EnvironmentSignal::Config cfg;
  cfg.mean = 1013.0;
  cfg.walk_step = 0.5;
  cfg.reversion = 0.05;
  EnvironmentSignal gen{cfg, sim::Rng{6}};
  const auto v = sample_channel(gen, 100.0, 10.0);
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  EXPECT_NEAR(mean, 1013.0, 5.0);
}

TEST(AudioSignal, UtteranceRaisesEnergy) {
  AudioSignal::Config cfg;
  cfg.utterances = {{0.5, 1}};
  AudioSignal gen{cfg, sim::Rng{7}};
  const auto v = sample_channel(gen, 1.5, 1000.0);
  double quiet = 0.0, loud = 0.0;
  for (std::size_t i = 0; i < 400; ++i) quiet += v[i] * v[i];
  for (std::size_t i = 600; i < 1000; ++i) loud += v[i] * v[i];
  EXPECT_GT(loud, quiet * 10.0);
}

TEST(AudioSignal, KeywordWaveformsDiffer) {
  const auto a = AudioSignal::keyword_waveform(0, 1000.0, 0.5, 1.0);
  const auto b = AudioSignal::keyword_waveform(1, 1000.0, 0.5, 1.0);
  ASSERT_EQ(a.size(), b.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff += std::abs(a[i] - b[i]);
  EXPECT_GT(diff / static_cast<double>(a.size()), 0.1);
}

TEST(CameraSignal, ProducesDecodableJpegNearTableSize) {
  CameraSignal gen{{}, sim::Rng{8}};
  Sample s;
  gen.generate(SimTime::origin() + Duration::from_ms(100), s);
  ASSERT_FALSE(s.blob.empty());
  // Table I: ~24 KB frames.
  EXPECT_GT(s.blob.size(), 12u * 1024u);
  EXPECT_LT(s.blob.size(), 40u * 1024u);
  const auto decoded = codecs::jpeg::decode(s.blob);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(decoded.image->width, 320);
  EXPECT_EQ(decoded.image->height, 240);
}

TEST(CameraSignal, FramesChangeOverTime) {
  CameraSignal gen{{}, sim::Rng{9}};
  Sample a, b;
  gen.generate(SimTime::origin(), a);
  gen.generate(SimTime::origin() + Duration::sec(1), b);
  EXPECT_NE(a.blob, b.blob);  // the moving object moved
}

TEST(FingerprintSignal, EmitsValidTemplates) {
  FingerprintSignal gen{{}, sim::Rng{10}};
  EXPECT_EQ(gen.enrolled().size(), 8u);
  for (int i = 0; i < 20; ++i) {
    Sample s;
    gen.generate(SimTime::origin(), s);
    ASSERT_EQ(s.blob.size(), codecs::fingerprint::kTemplateBytes);
    const auto tpl = codecs::fingerprint::deserialize(s.blob);
    ASSERT_TRUE(tpl.has_value());
  }
}

TEST(FingerprintSignal, MixOfKnownAndStrangers) {
  FingerprintSignal::Config cfg;
  cfg.stranger_prob = 0.5;
  FingerprintSignal gen{cfg, sim::Rng{11}};
  int strangers = 0, known = 0;
  for (int i = 0; i < 100; ++i) {
    Sample s;
    gen.generate(SimTime::origin(), s);
    if (s.channels[0] == 0.0) {
      ++strangers;
    } else {
      ++known;
    }
  }
  EXPECT_GT(strangers, 25);
  EXPECT_GT(known, 25);
}

TEST(Generators, DeterministicForSameSeed) {
  AccelerometerSignal g1{{}, sim::Rng{42}};
  AccelerometerSignal g2{{}, sim::Rng{42}};
  const auto a = sample_channel(g1, 1.0, 100.0, 0);
  const auto b = sample_channel(g2, 1.0, 100.0, 0);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace iotsim::sensors
