// Deterministic pseudo-random source for signal synthesis.
//
// xoshiro256** seeded via SplitMix64 — fast, reproducible across platforms,
// and independent of libstdc++ distribution implementations (std::normal_
// distribution output is not portable, so we roll Box–Muller ourselves).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

namespace iotsim::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform over all 64-bit values.
  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, 1): the top 53 bits as a double.
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Inline, so that a constant
  /// range's modulo compiles to a multiply.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    assert(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
    return lo + static_cast<std::int64_t>(next_u64() % span);
  }

  /// Standard normal via Box–Muller (cached pair).
  double normal();
  double normal(double mean, double stddev);

  /// True with probability p.
  bool bernoulli(double p);

  /// Derives an independent child stream (for per-sensor generators).
  [[nodiscard]] Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace iotsim::sim
