#include "sensors/sensor_catalog.h"

#include <gtest/gtest.h>

namespace iotsim::sensors {
namespace {

TEST(SensorCatalog, AllTenSensorsBuild) {
  sim::Rng rng{1};
  for (auto id : kAllSensors) {
    auto sensor = make_sensor(id, rng);
    ASSERT_NE(sensor, nullptr);
    EXPECT_FALSE(sensor->spec().id.empty());
    EXPECT_FALSE(sensor->spec().name.empty());
  }
}

TEST(SensorCatalog, TableOneAnchors) {
  // Spot-check rows against the paper's Table I.
  const auto& s1 = spec_of(SensorId::kS1Barometer);
  EXPECT_EQ(s1.bus, BusType::kSpi);
  EXPECT_DOUBLE_EQ(s1.read_time.to_ms(), 37.5);
  EXPECT_DOUBLE_EQ(s1.power_typ_mw, 19.47);
  EXPECT_EQ(s1.sample_bytes, 8u);
  EXPECT_DOUBLE_EQ(s1.qos_rate_hz, 10.0);

  const auto& s4 = spec_of(SensorId::kS4Accelerometer);
  EXPECT_EQ(s4.bus, BusType::kAnalog);
  EXPECT_EQ(s4.sample_bytes, 12u);
  EXPECT_DOUBLE_EQ(s4.qos_rate_hz, 1000.0);
  EXPECT_DOUBLE_EQ(s4.power_typ_mw, 1.3);

  const auto& s3 = spec_of(SensorId::kS3Fingerprint);
  EXPECT_DOUBLE_EQ(s3.read_time.to_ms(), 850.0);
  EXPECT_EQ(s3.sample_bytes, 512u);
  EXPECT_EQ(s3.samples_per_window(), 1);  // on-demand

  const auto& s10 = spec_of(SensorId::kS10Camera);
  EXPECT_EQ(s10.sample_bytes, 24u * 1024u);
}

TEST(SensorCatalog, SamplesPerWindowFollowQos) {
  EXPECT_EQ(spec_of(SensorId::kS4Accelerometer).samples_per_window(), 1000);
  EXPECT_EQ(spec_of(SensorId::kS5AirQuality).samples_per_window(), 200);
  EXPECT_EQ(spec_of(SensorId::kS1Barometer).samples_per_window(), 10);
  EXPECT_EQ(spec_of(SensorId::kS10Camera).samples_per_window(), 1);
}

TEST(SensorCatalog, McuBusySplitIsConsistent) {
  for (auto id : kAllSensors) {
    const auto& s = spec_of(id);
    EXPECT_LE(s.mcu_busy_time(), s.read_time) << s.id;
    EXPECT_EQ(s.mcu_busy_time() + s.conversion_time(), s.read_time) << s.id;
  }
  // Fig. 8 anchor: the accelerometer driver costs 0.1 ms per sample.
  EXPECT_DOUBLE_EQ(spec_of(SensorId::kS4Accelerometer).mcu_busy_time().to_ms(), 0.1);
}

TEST(SensorCatalog, WorldConfigShapesGenerators) {
  sim::Rng rng{2};
  WorldConfig world;
  world.quakes = {{0.1, 0.2, 5.0}};
  auto accel = make_sensor(SensorId::kS4Accelerometer, rng, world);
  // Sampling inside the quake shows far larger variance than outside.
  double in_quake = 0.0, outside = 0.0;
  for (int i = 0; i < 100; ++i) {
    const auto sample_in =
        accel->read(sim::SimTime::origin() + sim::Duration::from_ms(100 + i));
    const auto sample_out =
        accel->read(sim::SimTime::origin() + sim::Duration::from_ms(500 + i));
    in_quake += std::abs(sample_in.channels[0]);
    outside += std::abs(sample_out.channels[0]);
  }
  EXPECT_GT(in_quake, outside * 1.5);
}

}  // namespace
}  // namespace iotsim::sensors
