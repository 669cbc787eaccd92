// The window buffer: per-sensor sample columns and their life cycle.
//
// This binary replaces the global operator new with a counting one (as
// test_event_allocs does), so it is its own test executable: a full window
// must allocate each column's buffers exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "apps/iot_app.h"
#include "check/check.h"
#include "core/app_executor.h"
#include "env/hub_environment.h"
#include "hw/iot_hub.h"
#include "sensors/sensor_catalog.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
// The array form is replaced too: a sanitizer runtime would otherwise serve
// it without passing through the counting operator new.
void* operator new[](std::size_t size) { return operator new(size); }
// The replacement operator new above allocates with malloc, so free is the
// matching release. GCC's -Wmismatched-new-delete pairs any operator new
// with operator delete only, and reports this free once it inlines these
// functions into a caller: a false positive.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace iotsim::apps {
namespace {

using sensors::Sample;
using sensors::SensorId;
using sim::Duration;
using sim::SimTime;

Sample reading(double t_ms, sensors::Channels channels) {
  Sample s;
  s.time = SimTime::origin() + Duration::from_ms(t_ms);
  s.channels = channels;
  return s;
}

Sample blob_reading(double t_ms, std::vector<std::uint8_t> bytes) {
  Sample s = reading(t_ms, {static_cast<double>(bytes.size())});
  s.blob = std::move(bytes);
  return s;
}

/// One full window of readings per sensor of `spec`, in sensor order.
std::vector<std::pair<SensorId, Sample>> full_window(const WorkloadSpec& spec,
                                                     std::uint64_t seed = 7) {
  sim::Rng rng{seed};
  std::vector<std::pair<SensorId, Sample>> out;
  for (SensorId sid : spec.sensor_ids) {
    auto sensor = sensors::make_sensor(sid, rng);
    const int n = sensor->spec().samples_per_window();
    const Duration period = spec.window / n;
    for (int k = 0; k < n; ++k) {
      out.emplace_back(sid, sensor->read(SimTime::origin() + period * k));
    }
  }
  return out;
}

TEST(SampleColumn, ReadsBackTimesValuesAndChannels) {
  SampleColumn col;
  EXPECT_TRUE(col.empty());
  col.add(reading(1.0, {0.5, -1.5, 9.75}));
  col.add(reading(2.0, {1.0, 2.0, 3.0}));
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.time(0), SimTime::origin() + Duration::from_ms(1.0));
  EXPECT_EQ(col.time(1), SimTime::origin() + Duration::from_ms(2.0));
  EXPECT_EQ(col.value(0), 0.5);
  EXPECT_EQ(col.value(0, 2), 9.75);
  EXPECT_EQ(col.value(1, 1), 2.0);
  const auto ch = col.channels(1);
  ASSERT_EQ(ch.size(), 3u);
  EXPECT_EQ(std::vector<double>(ch.begin(), ch.end()), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(col.blob(0).empty());
  EXPECT_TRUE(col.blob(1).empty());

  SampleColumn scalar;
  scalar.add(reading(0.0, {42.0}));
  EXPECT_EQ(scalar.channels(0).size(), 1u);
  EXPECT_EQ(scalar.value(0), 42.0);
}

TEST(SampleColumn, LateBlobLeavesEarlierReadingsEmpty) {
  SampleColumn col;
  col.add(reading(0.0, {1.0}));
  col.add(reading(1.0, {2.0}));
  col.add(blob_reading(2.0, {0xFF, 0xD8, 0xFF}));
  col.add(reading(3.0, {4.0}));
  ASSERT_EQ(col.size(), 4u);
  EXPECT_TRUE(col.blob(0).empty());
  EXPECT_TRUE(col.blob(1).empty());
  ASSERT_EQ(col.blob(2).size(), 3u);
  EXPECT_EQ(col.blob(2).data()[1], 0xD8);
  EXPECT_TRUE(col.blob(3).empty());
  EXPECT_EQ(col.value(2), 3.0);
}

TEST(SampleColumn, WireBytesEqualThePerSampleSum) {
  SampleColumn col;
  std::vector<Sample> copies;
  auto add = [&](Sample s) {
    copies.push_back(s);
    col.add(std::move(s));
  };
  add(reading(0.0, {1.0}));
  add(blob_reading(1.0, std::vector<std::uint8_t>(300, 7)));
  add(reading(2.0, {3.0}));
  add(blob_reading(3.0, std::vector<std::uint8_t>(41, 1)));
  for (std::size_t declared : {0u, 8u, 512u}) {
    std::size_t expected = 0;
    for (const Sample& s : copies) expected += s.wire_bytes(declared);
    EXPECT_EQ(col.wire_bytes(declared), expected) << "declared " << declared;
  }
  EXPECT_EQ(SampleColumn{}.wire_bytes(8), 0u);
}

TEST(WindowInput, WireBytesOfAFullWindowEqualThePerSampleSum) {
  // A5 reads four numeric sensors and the camera.
  const WorkloadSpec& spec = spec_of(AppId::kA5Blynk);
  auto readings = full_window(spec);
  std::size_t expected = 0;
  for (const auto& [sid, s] : readings) {
    expected += s.wire_bytes(sensors::spec_of(sid).sample_bytes);
  }

  core::WindowCollector col;
  col.expected = readings.size();
  col.input = WindowInput{spec.sensor_ids, SimTime::origin()};
  for (auto& [sid, s] : readings) col.add(sid, std::move(s));
  EXPECT_TRUE(col.complete());
  EXPECT_EQ(col.total_wire_bytes(), expected);
  EXPECT_GT(col.input.of(SensorId::kS10Camera).blob(0).size(), 1000u);
}

TEST(WindowInput, UnreadSensorHasAnEmptyColumn) {
  const WorkloadSpec& spec = spec_of(AppId::kA2StepCounter);
  WindowInput in{spec.sensor_ids, SimTime::origin()};
  EXPECT_TRUE(in.of(SensorId::kS4Accelerometer).empty());  // nothing added yet
  in.add(SensorId::kS4Accelerometer, reading(0.0, {1.0, 2.0, 3.0}));
  EXPECT_EQ(in.of(SensorId::kS4Accelerometer).size(), 1u);
  EXPECT_TRUE(in.of(SensorId::kS8Sound).empty());  // not a sensor of the app
}

#if IOTSIM_CHECKS_ENABLED
TEST(SampleColumn, RejectsChannelPastWidthAndWidthMismatch) {
  check::ScopedFailureHandler guard{check::throwing_handler};
  SampleColumn col;
  col.add(reading(0.0, {1.0, 2.0, 3.0}));
  EXPECT_EQ(col.value(0, 2), 3.0);
  EXPECT_THROW((void)col.value(0, 3), check::CheckFailure);  // a 4th channel
  EXPECT_THROW(col.add(reading(1.0, {1.0})), check::CheckFailure);
  EXPECT_THROW(col.add(reading(1.0, {1.0, 2.0})), check::CheckFailure);
  EXPECT_EQ(col.size(), 1u);

  WindowInput in{spec_of(AppId::kA2StepCounter).sensor_ids, SimTime::origin()};
  EXPECT_THROW(in.add(SensorId::kS8Sound, reading(0.0, {1.0})), check::CheckFailure);
}
#endif

std::uint64_t allocations_to_add(WindowInput& in,
                                 std::vector<std::pair<SensorId, Sample>>& readings) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (auto& [sid, s] : readings) in.add(sid, std::move(s));
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(WindowInput, FullWindowAllocatesEachColumnOnce) {
  // A5: barometer, temperature, accelerometer (3 channels), air quality and
  // the camera. The column array, then a time and a value buffer per sensor,
  // then the camera's one blob slot; the frame itself moves in.
  const WorkloadSpec& spec = spec_of(AppId::kA5Blynk);
  ASSERT_EQ(spec.sensor_ids.size(), 5u);
  constexpr std::uint64_t kExpected = 1 + 2 * 5 + 1;

  WindowInput in{spec.sensor_ids, SimTime::origin()};
  auto first = full_window(spec, 7);
  EXPECT_EQ(allocations_to_add(in, first), kExpected);
  EXPECT_EQ(in.of(SensorId::kS4Accelerometer).size(),
            static_cast<std::size_t>(sensors::spec_of(SensorId::kS4Accelerometer)
                                         .samples_per_window()));

  // Released storage is allocated afresh, once again, by the next window.
  in.release();
  auto second = full_window(spec, 8);
  EXPECT_EQ(allocations_to_add(in, second), kExpected);
}

// ------------------------------------------------------------ life cycle --

struct ExecutorHarness {
  static constexpr int kWindows = 3;

  sim::Simulator sim;
  energy::EnergyAccountant acct;
  hw::IotHub hub{sim, acct, hw::default_hub_spec()};
  core::QosChecker qos;
  trace::MipsCounter mips;
  env::HubEnvironment env{env::EnvironmentConfig{}, 1, kWindows, Duration::sec(1)};
  core::AppExecutor exec{sim, hub, AppId::kA2StepCounter, core::AppMode::kPerSample, kWindows,
                         qos, mips};

  /// Fills every window with real accelerometer readings.
  void fill() {
    const WorkloadSpec& spec = exec.spec();
    for (int w = 0; w < kWindows; ++w) {
      auto readings = full_window(spec, static_cast<std::uint64_t>(10 + w));
      for (auto& [sid, s] : readings) exec.collector(w).add(sid, std::move(s));
    }
  }
};

TEST(WindowLifeCycle, ReadingsAreFreedOnceTheKernelHasRunOrTheWindowIsLost) {
  ExecutorHarness h;
  // Window 1 is lost: a crash inside it keeps the hub down for the window.
  h.env.apply_crash(1, 0);
  h.exec.set_environment(&h.env);
  h.fill();
  for (int w = 0; w < ExecutorHarness::kWindows; ++w) {
    ASSERT_TRUE(h.exec.collector(w).complete());
    ASSERT_FALSE(h.exec.collector(w).input.of(SensorId::kS4Accelerometer).empty());
  }

  h.sim.spawn(h.exec.cpu_loop());
  h.sim.run();

  const core::AppResult result = h.exec.build_result();
  ASSERT_EQ(result.records.size(), 3u);
  EXPECT_EQ(result.records[1].summary, "window lost: hub down");
  EXPECT_NE(result.records[0].summary, "window lost: hub down");
  EXPECT_NE(result.records[2].summary, "window lost: hub down");
  for (int w = 0; w < ExecutorHarness::kWindows; ++w) {
    const core::WindowCollector& col = h.exec.collector(w);
    EXPECT_TRUE(col.input.of(SensorId::kS4Accelerometer).empty()) << "window " << w;
    EXPECT_EQ(col.input.window_start, SimTime::origin() + h.exec.spec().window * w);
    EXPECT_EQ(col.received, col.expected);  // the barrier's counters stay
    EXPECT_EQ(result.records[static_cast<std::size_t>(w)].started, col.input.window_start);
  }
}

}  // namespace
}  // namespace iotsim::apps
