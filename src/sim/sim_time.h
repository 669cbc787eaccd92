// Simulation time: integer nanoseconds since simulation start.
//
// Strong types keep wall-clock (std::chrono) and simulated time from mixing.
// All hardware latencies in the model are exact in nanoseconds; floating
// point appears only at the presentation boundary (to_seconds / to_ms).
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace iotsim::sim {

/// A span of simulated time. Signed so that differences are representable.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration ns(std::int64_t v) { return Duration{v}; }
  [[nodiscard]] static constexpr Duration us(std::int64_t v) { return Duration{v * 1'000}; }
  [[nodiscard]] static constexpr Duration ms(std::int64_t v) { return Duration{v * 1'000'000}; }
  [[nodiscard]] static constexpr Duration sec(std::int64_t v) { return Duration{v * 1'000'000'000}; }

  /// Converts a floating-point quantity, rounding to the nearest nanosecond.
  [[nodiscard]] static Duration from_seconds(double s);
  [[nodiscard]] static Duration from_ms(double ms);
  [[nodiscard]] static Duration from_us(double us);

  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns_) * 1e-6; }
  [[nodiscard]] constexpr double to_us() const { return static_cast<double>(ns_) * 1e-3; }

  [[nodiscard]] constexpr bool is_zero() const { return ns_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return ns_ < 0; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator/(Duration a, std::int64_t k) { return Duration{a.ns_ / k}; }
  constexpr Duration& operator+=(Duration o) { ns_ += o.ns_; return *this; }
  constexpr Duration& operator-=(Duration o) { ns_ -= o.ns_; return *this; }
  friend constexpr auto operator<=>(Duration, Duration) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Duration(std::int64_t v) : ns_{v} {}
  std::int64_t ns_ = 0;
};

/// A point on the simulated timeline.
class SimTime {
 public:
  constexpr SimTime() = default;

  [[nodiscard]] static constexpr SimTime origin() { return SimTime{0}; }
  [[nodiscard]] static constexpr SimTime from_ns(std::int64_t v) { return SimTime{v}; }
  [[nodiscard]] static constexpr SimTime infinite() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t count_ns() const { return ns_; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) * 1e-9; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns_) * 1e-6; }

  friend constexpr SimTime operator+(SimTime t, Duration d) {
    return SimTime{t.ns_ + d.count_ns()};
  }
  friend constexpr Duration operator-(SimTime a, SimTime b) { return Duration::ns(a.ns_ - b.ns_); }
  friend constexpr auto operator<=>(SimTime, SimTime) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit SimTime(std::int64_t v) : ns_{v} {}
  std::int64_t ns_ = 0;
};

}  // namespace iotsim::sim
