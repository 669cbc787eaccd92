#include "dsp/filters.h"

#include <cassert>
#include <cmath>
#include <numbers>

namespace iotsim::dsp {

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_{b0}, b1_{b1}, b2_{b2}, a1_{a1}, a2_{a2} {}

namespace {
struct RbjParams {
  double w0, cosw, sinw, alpha;
};
RbjParams rbj(double fs, double fc, double q) {
  assert(fc > 0.0 && fc < fs / 2.0);
  const double w0 = 2.0 * std::numbers::pi * fc / fs;
  return {w0, std::cos(w0), std::sin(w0), std::sin(w0) / (2.0 * q)};
}
}  // namespace

Biquad Biquad::low_pass(double fs, double fc, double q) {
  const auto p = rbj(fs, fc, q);
  const double a0 = 1.0 + p.alpha;
  return Biquad{(1.0 - p.cosw) / 2.0 / a0, (1.0 - p.cosw) / a0, (1.0 - p.cosw) / 2.0 / a0,
                -2.0 * p.cosw / a0, (1.0 - p.alpha) / a0};
}

Biquad Biquad::high_pass(double fs, double fc, double q) {
  const auto p = rbj(fs, fc, q);
  const double a0 = 1.0 + p.alpha;
  return Biquad{(1.0 + p.cosw) / 2.0 / a0, -(1.0 + p.cosw) / a0, (1.0 + p.cosw) / 2.0 / a0,
                -2.0 * p.cosw / a0, (1.0 - p.alpha) / a0};
}

Biquad Biquad::band_pass(double fs, double fc, double q) {
  const auto p = rbj(fs, fc, q);
  const double a0 = 1.0 + p.alpha;
  return Biquad{p.alpha / a0, 0.0, -p.alpha / a0, -2.0 * p.cosw / a0, (1.0 - p.alpha) / a0};
}

double Biquad::process(double x) {
  const double y = b0_ * x + b1_ * x1_ + b2_ * x2_ - a1_ * y1_ - a2_ * y2_;
  x2_ = x1_;
  x1_ = x;
  y2_ = y1_;
  y1_ = y;
  return y;
}

MovingAverage::MovingAverage(std::size_t window) : window_{window} { assert(window > 0); }

double MovingAverage::process(double x) {
  buf_.push_back(x);
  sum_ += x;
  if (buf_.size() > window_) {
    sum_ -= buf_.front();
    buf_.pop_front();
  }
  return sum_ / static_cast<double>(buf_.size());
}

double Derivative::process(double x) {
  // y[n] = (2x[n] + x[n-1] - x[n-3] - 2x[n-4]) / 8
  const double y = (2.0 * x + x_[0] - x_[2] - 2.0 * x_[3]) / 8.0;
  x_[3] = x_[2];
  x_[2] = x_[1];
  x_[1] = x_[0];
  x_[0] = x;
  return y;
}

Stats compute_stats(std::span<const double> xs) {
  Stats s;
  if (xs.empty()) return s;
  s.min = s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - s.mean) * (x - s.mean);
  s.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  return s;
}

double rms(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sq = 0.0;
  for (double x : xs) sq += x * x;
  return std::sqrt(sq / static_cast<double>(xs.size()));
}

}  // namespace iotsim::dsp
