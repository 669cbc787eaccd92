// End-to-end kernel tests: each app consumes real synthetic sensor windows
// and must produce the correct user-level result (Table II rightmost
// column).
#include <gtest/gtest.h>

#include "apps/iot_app.h"
#include "sensors/sensor_catalog.h"

namespace iotsim::apps {
namespace {

using sensors::SensorId;
using sim::Duration;
using sim::SimTime;

/// Collects one window of samples for an app, window index `w`.
WindowInput make_window(const WorkloadSpec& spec,
                        std::map<SensorId, std::unique_ptr<sensors::Sensor>>& sensors, int w) {
  WindowInput in{spec.sensor_ids, SimTime::origin() + spec.window * w};
  for (auto sid : spec.sensor_ids) {
    auto& sensor = sensors.at(sid);
    const int n = sensor->spec().samples_per_window();
    const Duration period = spec.window / n;
    for (int k = 0; k < n; ++k) {
      in.add(sid, sensor->read(in.window_start + period * k));
    }
  }
  return in;
}

struct AppHarness {
  std::unique_ptr<IotApp> app;
  std::map<SensorId, std::unique_ptr<sensors::Sensor>> sensors;
  trace::MemoryProfiler profiler;

  AppHarness(AppId id, const sensors::WorldConfig& world = {}, std::uint64_t seed = 42)
      : app{make_app(id)} {
    sim::Rng rng{seed};
    for (auto sid : app->spec().sensor_ids) {
      sensors.emplace(sid, sensors::make_sensor(sid, rng, world));
    }
  }

  WindowOutput window(int w) {
    auto in = make_window(app->spec(), sensors, w);
    trace::Workspace ws{profiler};
    return app->process_window(in, ws);
  }
};

TEST(Kernels, A1CoapServesResourcesObserversAndBlocks) {
  AppHarness h{AppId::kA1CoapServer};
  const auto out = h.window(0);
  // 2 plain GETs + 2 observe registrations + ≥1 history block.
  EXPECT_GE(out.metric, 5.0);
  EXPECT_GT(out.net_payload_bytes, 0u);
  EXPECT_NE(out.summary.find("observers=2"), std::string::npos);

  // Subsequent windows push observer notifications.
  const auto out1 = h.window(1);
  EXPECT_NE(out1.summary.find("notified=2"), std::string::npos);
}

TEST(Kernels, A2CountsStepsAtCadence) {
  sensors::WorldConfig world;
  world.walking_cadence_hz = 2.0;
  AppHarness h{AppId::kA2StepCounter, world};
  double steps = 0.0;
  for (int w = 0; w < 5; ++w) steps += h.window(w).metric;
  // 2 steps/s for 5 s ⇒ ~10 steps.
  EXPECT_NEAR(steps, 10.0, 2.0);
}

TEST(Kernels, A3JsonRoundTripsCleanly) {
  AppHarness h{AppId::kA3ArduinoJson};
  const auto out = h.window(0);
  EXPECT_FALSE(out.event);  // event flags a round-trip failure
  EXPECT_GT(out.metric, 100.0);  // non-trivial document
  EXPECT_NE(out.summary.find("round_trip=ok"), std::string::npos);
}

TEST(Kernels, A4BuildsM2xPost) {
  AppHarness h{AppId::kA4M2x};
  const auto out = h.window(0);
  EXPECT_DOUBLE_EQ(out.metric, 2220.0);  // all Table II samples consumed
  EXPECT_GT(out.net_payload_bytes, 10'000u);  // base64 accel batch dominates
}

TEST(Kernels, A5FramesBlynkMessages) {
  AppHarness h{AppId::kA5Blynk};
  const auto out = h.window(0);
  EXPECT_DOUBLE_EQ(out.metric, 5.0);  // 4 virtual pins + 1 image message
  EXPECT_GT(out.net_payload_bytes, 10'000u);
}

TEST(Kernels, A6ChunksAndUploadsOnce) {
  AppHarness h{AppId::kA6Dropbox};
  const auto first = h.window(0);
  EXPECT_GT(first.metric, 1.0);          // several chunks
  EXPECT_GT(first.net_payload_bytes, 0u);
  const auto second = h.window(1);
  // Different window data ⇒ chunks change ⇒ another upload; but the
  // manifest always goes out.
  EXPECT_GT(second.net_payload_bytes, 0u);
}

TEST(Kernels, A7DetectsInjectedQuakeOnly) {
  sensors::WorldConfig quiet_world;
  AppHarness quiet{AppId::kA7Earthquake, quiet_world};
  EXPECT_FALSE(quiet.window(0).event);

  sensors::WorldConfig shaky;
  shaky.quakes = {{0.4, 0.3, 2.5}};
  AppHarness shaken{AppId::kA7Earthquake, shaky};
  const auto out = shaken.window(0);
  EXPECT_TRUE(out.event) << out.summary;
  EXPECT_GT(out.net_payload_bytes, 0u);  // API verification fires
}

TEST(Kernels, A8TracksHeartRateAcrossWindows) {
  sensors::WorldConfig world;
  world.heart_bpm = 80.0;
  AppHarness h{AppId::kA8Heartbeat, world};
  WindowOutput out;
  for (int w = 0; w < 8; ++w) out = h.window(w);
  EXPECT_NEAR(out.metric, 80.0, 8.0);
  EXPECT_FALSE(out.event);  // regular rhythm
}

TEST(Kernels, A8FlagsIrregularRhythm) {
  sensors::WorldConfig world;
  world.heart_bpm = 80.0;
  world.heart_irregular_prob = 0.35;
  AppHarness h{AppId::kA8Heartbeat, world};
  bool flagged = false;
  for (int w = 0; w < 10; ++w) flagged = flagged || h.window(w).event;
  EXPECT_TRUE(flagged);
}

TEST(Kernels, A9DecodesCameraFrame) {
  AppHarness h{AppId::kA9JpegDecoder};
  const auto out = h.window(0);
  EXPECT_FALSE(out.event);  // no decode error
  EXPECT_NE(out.summary.find("decoded 320x240"), std::string::npos);
  EXPECT_GT(out.metric, 50.0);   // plausible mean luminance
  EXPECT_LT(out.metric, 220.0);
}

TEST(Kernels, A10EnrollsThenIdentifies) {
  AppHarness h{AppId::kA10Fingerprint};
  int enrolled = 0, identified = 0, rejected = 0;
  for (int w = 0; w < 40; ++w) {
    const auto out = h.window(w);
    if (out.summary.find("enrolled") != std::string::npos) ++enrolled;
    if (out.summary.find("identified") != std::string::npos) ++identified;
    if (out.summary.find("rejected") != std::string::npos) ++rejected;
  }
  EXPECT_GT(enrolled, 3);
  EXPECT_GT(identified, 5);
  EXPECT_GT(rejected, 0);  // strangers exist in the stream
}

TEST(Kernels, A11DecodesSpokenKeywords) {
  sensors::WorldConfig world;
  world.utterances = {{0.2, 0}, {1.3, 2}};
  AppHarness h{AppId::kA11SpeechToText, world};
  const auto w0 = h.window(0);
  EXPECT_TRUE(w0.event) << w0.summary;
  EXPECT_DOUBLE_EQ(w0.metric, 0.0);  // word id 0 = "lights"
  EXPECT_NE(w0.summary.find("lights"), std::string::npos);
  const auto w1 = h.window(1);
  EXPECT_TRUE(w1.event) << w1.summary;
  EXPECT_DOUBLE_EQ(w1.metric, 2.0);  // word id 2 = "warmer"
}

TEST(Kernels, A11StaysQuietOnSilence) {
  AppHarness h{AppId::kA11SpeechToText};
  const auto out = h.window(0);
  EXPECT_FALSE(out.event);
}


// Cadence sweep: the step counter must track the walker across rates.
class CadenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(CadenceSweep, StepsPerSecondTracksCadence) {
  const double cadence = GetParam();
  sensors::WorldConfig world;
  world.walking_cadence_hz = cadence;
  AppHarness h{AppId::kA2StepCounter, world};
  double steps = 0.0;
  constexpr int kWindows = 6;
  for (int w = 0; w < kWindows; ++w) steps += h.window(w).metric;
  EXPECT_NEAR(steps / kWindows, cadence, cadence * 0.35 + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Cadences, CadenceSweep, ::testing::Values(1.2, 1.6, 2.0, 2.4));

TEST(Kernels, HeapUsageLandsNearFig6Targets) {
  for (auto id : kLightweightApps) {
    AppHarness h{id};
    (void)h.window(0);
    const double measured_kb = static_cast<double>(h.profiler.peak_heap_bytes()) / 1024.0;
    const double target_kb = static_cast<double>(spec_of(id).fig6_heap_bytes) / 1024.0;
    EXPECT_NEAR(measured_kb, target_kb, target_kb * 0.45) << code_of(id);
  }
}

TEST(Kernels, WorkspaceFreedBetweenWindows) {
  AppHarness h{AppId::kA2StepCounter};
  (void)h.window(0);
  EXPECT_EQ(h.profiler.live_heap_bytes(), 0u);
  EXPECT_EQ(h.profiler.live_stack_bytes(), 0u);
}

}  // namespace
}  // namespace iotsim::apps
