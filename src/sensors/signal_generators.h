// Synthetic physical-signal models feeding the sensors — the substitution
// for the real-world stimuli of the paper's testbed (walking users, heart
// beats, street sound, camera scenes, fingerprints; DESIGN.md §1).
//
// All generators are deterministic functions of (seed, time) so experiments
// reproduce bit-for-bit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "codecs/fingerprint/minutiae.h"
#include "sensors/sample.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace iotsim::sensors {

class SignalGenerator {
 public:
  virtual ~SignalGenerator() = default;
  /// Produces the physical quantity at simulated time `t`.
  virtual void generate(sim::SimTime t, Sample& out) = 0;
};

/// 3-axis accelerometer (m/s²): gravity + gait oscillation + noise, with
/// optional seismic bursts for the earthquake workload.
class AccelerometerSignal final : public SignalGenerator {
 public:
  struct Quake {
    double start_s;
    double duration_s;
    double magnitude;  // RMS of the broadband burst
  };
  struct Config {
    double step_rate_hz = 1.9;   // walking cadence
    double step_amp = 3.0;       // vertical bounce amplitude
    double noise = 0.15;
    std::vector<Quake> quakes;
  };

  AccelerometerSignal(Config cfg, sim::Rng rng) : cfg_{std::move(cfg)}, rng_{rng} {}
  void generate(sim::SimTime t, Sample& out) override;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  sim::Rng rng_;
};

/// Photoplethysmogram / ECG-like pulse waveform (the S6 pulse sensor).
class PulseSignal final : public SignalGenerator {
 public:
  struct Config {
    double bpm = 72.0;
    double rr_jitter = 0.02;      // fractional RR variability
    double irregular_prob = 0.0;  // chance a beat shifts grossly (arrhythmia)
    double noise = 0.02;
  };

  PulseSignal(Config cfg, sim::Rng rng);
  void generate(sim::SimTime t, Sample& out) override;

 private:
  void extend_beats_until(double t_s);
  Config cfg_;
  sim::Rng rng_;
  std::vector<double> beat_times_s_;  // ascending
  /// First beat that can still shape the waveform at `last_t_s_` (at most
  /// 0.8 s before it); the beats before it are past for good while t only
  /// advances.
  std::size_t first_beat_ = 0;
  double last_t_s_ = 0.0;
};

/// Scalar environment quantity as a mean-reverting random walk with an
/// optional diurnal component (temperature, pressure, light, air quality,
/// distance).
class EnvironmentSignal final : public SignalGenerator {
 public:
  struct Config {
    double mean = 20.0;
    double walk_step = 0.01;
    double reversion = 0.01;
    double diurnal_amp = 0.0;
    double noise = 0.0;
    double min = -1e300;
    double max = 1e300;
  };

  EnvironmentSignal(Config cfg, sim::Rng rng) : cfg_{cfg}, rng_{rng}, value_{cfg.mean} {}
  void generate(sim::SimTime t, Sample& out) override;

 private:
  Config cfg_;
  sim::Rng rng_;
  double value_;
};

/// Microphone signal: pink-ish ambient noise plus scheduled keyword
/// utterances (each keyword is a distinct formant-tone sequence), so the
/// speech-to-text kernel has real content to recognise.
class AudioSignal final : public SignalGenerator {
 public:
  struct Utterance {
    double start_s;
    int word_id;  // index into the keyword vocabulary
  };
  struct Config {
    double sample_rate_hz = 1000.0;
    double ambient_level = 0.05;
    double utterance_level = 0.8;
    double utterance_duration_s = 0.6;
    int vocabulary = 6;
    std::vector<Utterance> utterances;
  };

  AudioSignal(Config cfg, sim::Rng rng) : cfg_{std::move(cfg)}, rng_{rng} {}
  void generate(sim::SimTime t, Sample& out) override;

  /// The canonical (noise-free) waveform of one keyword, for building
  /// recogniser templates.
  [[nodiscard]] static std::vector<double> keyword_waveform(int word_id, double sample_rate_hz,
                                                            double duration_s, double level);
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  Config cfg_;
  sim::Rng rng_;
};

/// Camera producing JFIF-compressed frames of a synthetic scene.
class CameraSignal final : public SignalGenerator {
 public:
  struct Config {
    int width = 320;
    int height = 240;
    int quality = 80;
    bool moving_object = true;  // a block that drifts between frames
  };

  CameraSignal(Config cfg, sim::Rng rng) : cfg_{cfg}, rng_{rng} {}
  void generate(sim::SimTime t, Sample& out) override;

 private:
  Config cfg_;
  sim::Rng rng_;
};

/// Optical fingerprint scanner: emits 512-byte minutiae templates — mostly
/// noisy recaptures of a fixed enrolled population, sometimes strangers.
class FingerprintSignal final : public SignalGenerator {
 public:
  struct Config {
    std::uint16_t population = 8;   // enrolled subjects
    double stranger_prob = 0.2;
    std::size_t minutiae_per_finger = 34;
  };

  FingerprintSignal(Config cfg, sim::Rng rng);
  void generate(sim::SimTime t, Sample& out) override;

  /// The enrolled population's reference templates (for seeding the
  /// matcher's database).
  [[nodiscard]] const std::vector<codecs::fingerprint::Template>& enrolled() const {
    return enrolled_;
  }

 private:
  Config cfg_;
  sim::Rng rng_;
  std::vector<codecs::fingerprint::Template> enrolled_;
};

}  // namespace iotsim::sensors
