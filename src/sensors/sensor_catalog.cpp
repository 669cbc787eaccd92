#include "sensors/sensor_catalog.h"

#include <cassert>

namespace iotsim::sensors {

namespace {

SensorSpec build_spec(SensorId id) {
  using sim::Duration;
  SensorSpec s;
  switch (id) {
    case SensorId::kS1Barometer:
      s = {"S1", "Barometer", BusType::kSpi, Duration::from_ms(37.5), Duration::zero(),
           2.12, 19.47, 28.93, "Double", 8, 157.0, 10.0, true};
      break;
    case SensorId::kS2Temperature:
      s = {"S2", "Temperature", BusType::kI2c, Duration::from_ms(18.75), Duration::zero(),
           1.0, 13.5, 20.0, "Double", 8, 120.0, 10.0, true};
      break;
    case SensorId::kS3Fingerprint:
      s = {"S3", "Fingerprint", BusType::kTtlSerial, Duration::from_ms(850.0), Duration::zero(),
           432.0, 600.0, 900.0, "Signature", 512, 0.0, 0.0, true};
      break;
    case SensorId::kS4Accelerometer:
      // Table I quotes a 0.5 ms datasheet latency; the platform sees 0.1 ms
      // per sample (Fig. 8's 100 ms data collection for 1000 samples).
      s = {"S4", "Accelerometer", BusType::kAnalog, Duration::from_ms(0.5),
           Duration::from_ms(0.1), 0.63, 1.3, 1.75, "Int*3", 12, 1e6, 1000.0, true};
      break;
    case SensorId::kS5AirQuality:
      s = {"S5", "Air Quality", BusType::kI2c, Duration::from_ms(0.96), Duration::zero(),
           1.2, 30.0, 46.0, "Int", 4, 400.0, 200.0, true};
      break;
    case SensorId::kS6Pulse:
      s = {"S6", "Pulse", BusType::kAnalog, Duration::from_ms(0.1), Duration::zero(),
           9.9, 15.0, 22.0, "Int", 4, 1e6, 1000.0, true};
      break;
    case SensorId::kS7Light:
      s = {"S7", "Light", BusType::kI2c, Duration::from_ms(0.1), Duration::zero(),
           16.8, 21.0, 25.2, "Double", 8, 4e5, 1000.0, true};
      break;
    case SensorId::kS8Sound:
      s = {"S8", "Sound", BusType::kAnalog, Duration::from_ms(0.1), Duration::zero(),
           16.0, 40.0, 96.0, "Int", 4, 1e6, 1000.0, true};
      break;
    case SensorId::kS9Distance:
      s = {"S9", "Distance", BusType::kAnalog, Duration::from_ms(0.2), Duration::zero(),
           120.0, 150.0, 175.0, "Double", 8, 5000.0, 1000.0, true};
      break;
    case SensorId::kS10Camera:
      // The MCU-friendly low-res variant (ArduCAM row of Table I): ~24 KB
      // frames, read on demand (one frame per app window).
      s = {"S10", "Low-Res Camera", BusType::kTtlSerial, Duration::from_ms(183.64),
           Duration::zero(), 30.0, 125.0, 140.0, "RGB", 24 * 1024, 0.0, 0.0, true};
      break;
  }
  return s;
}

}  // namespace

const SensorSpec& spec_of(SensorId id) {
  static const auto specs = [] {
    std::array<SensorSpec, kAllSensors.size()> out;
    for (SensorId s : kAllSensors) out[static_cast<std::size_t>(s)] = build_spec(s);
    return out;
  }();
  const auto idx = static_cast<std::size_t>(id);
  assert(idx < specs.size());
  return specs[idx];
}

std::unique_ptr<Sensor> make_sensor(SensorId id, sim::Rng& master, const WorldConfig& world) {
  SensorSpec spec = spec_of(id);  // the sensor keeps its own copy
  sim::Rng rng = master.fork();
  std::unique_ptr<SignalGenerator> gen;

  switch (id) {
    case SensorId::kS4Accelerometer: {
      AccelerometerSignal::Config cfg;
      cfg.step_rate_hz = world.walking_cadence_hz;
      cfg.quakes = world.quakes;
      gen = std::make_unique<AccelerometerSignal>(cfg, rng);
      break;
    }
    case SensorId::kS6Pulse: {
      PulseSignal::Config cfg;
      cfg.bpm = world.heart_bpm;
      cfg.irregular_prob = world.heart_irregular_prob;
      gen = std::make_unique<PulseSignal>(cfg, rng);
      break;
    }
    case SensorId::kS8Sound: {
      AudioSignal::Config cfg;
      cfg.utterances = world.utterances;
      gen = std::make_unique<AudioSignal>(cfg, rng);
      break;
    }
    case SensorId::kS10Camera: {
      CameraSignal::Config cfg;
      gen = std::make_unique<CameraSignal>(cfg, rng);
      break;
    }
    case SensorId::kS3Fingerprint: {
      FingerprintSignal::Config cfg;
      gen = std::make_unique<FingerprintSignal>(cfg, rng);
      break;
    }
    case SensorId::kS1Barometer: {
      EnvironmentSignal::Config cfg;
      cfg.mean = 1013.25;  // hPa
      cfg.walk_step = 0.02;
      cfg.noise = 0.05;
      cfg.min = 900.0;
      cfg.max = 1100.0;
      gen = std::make_unique<EnvironmentSignal>(cfg, rng);
      break;
    }
    case SensorId::kS2Temperature: {
      EnvironmentSignal::Config cfg;
      cfg.mean = 22.5;
      cfg.walk_step = 0.01;
      cfg.noise = 0.02;
      cfg.diurnal_amp = 3.0;
      cfg.min = -40.0;
      cfg.max = 85.0;
      gen = std::make_unique<EnvironmentSignal>(cfg, rng);
      break;
    }
    case SensorId::kS5AirQuality: {
      EnvironmentSignal::Config cfg;
      cfg.mean = 420.0;  // CO2 ppm
      cfg.walk_step = 1.5;
      cfg.noise = 2.0;
      cfg.min = 350.0;
      cfg.max = 5000.0;
      gen = std::make_unique<EnvironmentSignal>(cfg, rng);
      break;
    }
    case SensorId::kS7Light: {
      EnvironmentSignal::Config cfg;
      cfg.mean = 300.0;  // lux
      cfg.walk_step = 2.0;
      cfg.noise = 5.0;
      cfg.min = 0.0;
      cfg.max = 65535.0;
      gen = std::make_unique<EnvironmentSignal>(cfg, rng);
      break;
    }
    case SensorId::kS9Distance: {
      EnvironmentSignal::Config cfg;
      cfg.mean = 1.8;  // metres
      cfg.walk_step = 0.02;
      cfg.noise = 0.01;
      cfg.min = 0.02;
      cfg.max = 4.0;
      gen = std::make_unique<EnvironmentSignal>(cfg, rng);
      break;
    }
  }
  return std::make_unique<Sensor>(std::move(spec), std::move(gen));
}

}  // namespace iotsim::sensors
