// The ten sensors of Table I, with the paper's specifications and suitable
// synthetic signals behind each.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "sensors/sensor.h"
#include "sim/random.h"

namespace iotsim::sensors {

enum class SensorId : unsigned char {
  kS1Barometer = 0,
  kS2Temperature,
  kS3Fingerprint,
  kS4Accelerometer,
  kS5AirQuality,
  kS6Pulse,
  kS7Light,
  kS8Sound,
  kS9Distance,
  kS10Camera,
};

inline constexpr std::array<SensorId, 10> kAllSensors = {
    SensorId::kS1Barometer,     SensorId::kS2Temperature, SensorId::kS3Fingerprint,
    SensorId::kS4Accelerometer, SensorId::kS5AirQuality,  SensorId::kS6Pulse,
    SensorId::kS7Light,         SensorId::kS8Sound,       SensorId::kS9Distance,
    SensorId::kS10Camera,
};

/// The Table I specification row for a sensor, from a table built once.
[[nodiscard]] const SensorSpec& spec_of(SensorId id);

/// Options that shape the synthetic world behind the sensors.
struct WorldConfig {
  /// Seismic bursts injected into the accelerometer (for A7).
  std::vector<AccelerometerSignal::Quake> quakes;
  /// Keyword utterances embedded in the sound channel (for A11).
  std::vector<AudioSignal::Utterance> utterances;
  double heart_bpm = 72.0;
  double heart_irregular_prob = 0.0;
  double walking_cadence_hz = 1.9;
};

/// Builds a sensor with its generator; forks an independent RNG stream from
/// `master` so sensors don't perturb each other's randomness.
[[nodiscard]] std::unique_ptr<Sensor> make_sensor(SensorId id, sim::Rng& master,
                                                  const WorldConfig& world = {});

}  // namespace iotsim::sensors
