// Streaming IIR/FIR filters used by the sensing kernels.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

namespace iotsim::dsp {

/// Direct-form-I biquad section.
class Biquad {
 public:
  /// Raw coefficients (already normalised by a0).
  Biquad(double b0, double b1, double b2, double a1, double a2);

  /// Butterworth-style designs at sampling rate `fs`.
  [[nodiscard]] static Biquad low_pass(double fs, double fc, double q = 0.7071);
  [[nodiscard]] static Biquad high_pass(double fs, double fc, double q = 0.7071);
  [[nodiscard]] static Biquad band_pass(double fs, double fc, double q);

  [[nodiscard]] double process(double x);

 private:
  double b0_, b1_, b2_, a1_, a2_;
  double x1_ = 0, x2_ = 0, y1_ = 0, y2_ = 0;
};

/// Sliding-window mean.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window);
  [[nodiscard]] double process(double x);

 private:
  std::size_t window_;
  std::deque<double> buf_;
  double sum_ = 0.0;
};

/// Derivative filter (5-point, Pan–Tompkins style): y[n] ≈ dx/dt.
class Derivative {
 public:
  [[nodiscard]] double process(double x);

 private:
  double x_[4] = {0, 0, 0, 0};
};

/// Basic batch statistics over a window.
struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};
[[nodiscard]] Stats compute_stats(std::span<const double> xs);

/// Root-mean-square of a window.
[[nodiscard]] double rms(std::span<const double> xs);

}  // namespace iotsim::dsp
