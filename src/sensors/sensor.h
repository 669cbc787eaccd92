// A sensor device: Table I specification + the synthetic signal behind it.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "sensors/sample.h"
#include "sensors/signal_generators.h"
#include "sim/sim_time.h"

namespace iotsim::sensors {

enum class BusType : unsigned char {
  kSpi,
  kI2c,
  kTtlSerial,
  kAnalog,
  kCameraSerial,
};

[[nodiscard]] std::string_view to_string(BusType b);

/// One row of Table I.
struct SensorSpec {
  std::string id;    // "S4"
  std::string name;  // "Accelerometer"
  BusType bus = BusType::kAnalog;

  /// Datasheet read latency (Table I "Read Time").
  sim::Duration read_time = sim::Duration::from_ms(1.0);
  /// The latency the platform actually sees per §IV's measurements (Fig. 8
  /// pins the accelerometer at 0.1 ms); defaults to read_time.
  sim::Duration effective_read_time = sim::Duration::zero();

  double power_min_mw = 0.0;
  double power_typ_mw = 0.0;
  double power_max_mw = 0.0;

  std::string output_type;        // "Int*3"
  std::size_t sample_bytes = 4;   // Table I output size
  double max_rate_hz = 0.0;       // 0 = on-demand only
  double qos_rate_hz = 0.0;       // application-required rate; 0 = once/window

  /// True when the sensor's driver fits the MCU (all but high-res cameras,
  /// per Table I's MCU-friendly classification).
  bool mcu_friendly = true;

  /// MCU-busy part of a read: the driver's fetch+format work. Datasheet
  /// read latency beyond this is conversion time spent inside the sensor
  /// (the MCU is free meanwhile; the sensor/bus draws power).
  [[nodiscard]] sim::Duration mcu_busy_time() const {
    if (!effective_read_time.is_zero()) return effective_read_time;
    return read_time < sim::Duration::from_us(250.0) ? read_time
                                                     : sim::Duration::from_us(250.0);
  }
  [[nodiscard]] sim::Duration conversion_time() const {
    const auto busy = mcu_busy_time();
    return read_time > busy ? read_time - busy : sim::Duration::zero();
  }
  [[nodiscard]] sim::Duration driver_read_time() const { return mcu_busy_time(); }
  /// Samples per 1-second QoS window (≥1: on-demand sensors read once).
  [[nodiscard]] int samples_per_window() const {
    return qos_rate_hz > 0.0 ? static_cast<int>(qos_rate_hz) : 1;
  }
};

class Sensor {
 public:
  Sensor(SensorSpec spec, std::unique_ptr<SignalGenerator> generator)
      : spec_{std::move(spec)}, generator_{std::move(generator)} {}

  [[nodiscard]] const SensorSpec& spec() const { return spec_; }

  /// Performs the data-producing part of a read (the timing/energy cost is
  /// modeled by the runtime against the MCU and the sensor's PIO bus).
  [[nodiscard]] Sample read(sim::SimTime t) {
    Sample s;
    s.time = t;
    generator_->generate(t, s);
    return s;
  }

 private:
  SensorSpec spec_;
  std::unique_ptr<SignalGenerator> generator_;
};

}  // namespace iotsim::sensors
