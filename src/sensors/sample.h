// A single sensor reading as delivered by the MCU's driver after the
// check/read/format tasks of §II-B.
//
// Batching and COM hold a whole window of readings in the MCU buffer (§III),
// and a lockstep fleet holds every hub's window at once, so a reading owns no
// heap memory unless it carries a blob: its channels are stored inline.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/sim_time.h"

namespace iotsim::sensors {

/// Up to three numeric channels, stored inline. Assigned from a brace list
/// of one to three values (`channels = {x, y, z}`); a fourth value does not
/// compile.
class Channels {
 public:
  /// The widest reading: the accelerometer's x/y/z.
  static constexpr std::size_t kCapacity = 3;

  Channels() = default;
  template <std::convertible_to<double>... Ts>
    requires(sizeof...(Ts) >= 1 && sizeof...(Ts) <= kCapacity)
  Channels(Ts... values)  // NOLINT(google-explicit-constructor)
      : values_{static_cast<double>(values)...}, size_{sizeof...(Ts)} {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double operator[](std::size_t i) const {
    assert(i < size_);
    return values_[i];
  }
  [[nodiscard]] double at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range{"sensors::Channels::at"};
    return values_[i];
  }
  [[nodiscard]] const double* begin() const { return values_.data(); }
  [[nodiscard]] const double* end() const { return values_.data() + size_; }

 private:
  std::array<double, kCapacity> values_{};
  std::uint8_t size_ = 0;
};

/// Opaque payload bytes (camera frame, fingerprint template) behind one
/// owning pointer, null when empty. Copies are deep: BEAM hands each
/// subscriber its own sample.
class Blob {
 public:
  Blob() = default;
  Blob(const Blob& other) {
    if (!other.empty()) bytes_ = std::make_unique<Bytes>(*other.bytes_);
  }
  Blob(Blob&&) noexcept = default;
  Blob& operator=(Blob&&) noexcept = default;

  /// Takes the buffer over as is; its spare capacity stays allocated.
  Blob& operator=(std::vector<std::uint8_t>&& bytes) {
    bytes_ = bytes.empty() ? nullptr : std::make_unique<Bytes>(std::move(bytes));
    return *this;
  }

  [[nodiscard]] std::size_t size() const { return bytes_ ? bytes_->size() : 0; }
  [[nodiscard]] bool empty() const { return bytes_ == nullptr; }
  [[nodiscard]] const std::uint8_t* data() const { return bytes_ ? bytes_->data() : nullptr; }
  [[nodiscard]] const std::uint8_t* begin() const { return data(); }
  [[nodiscard]] const std::uint8_t* end() const { return data() + size(); }

  operator std::span<const std::uint8_t>() const {  // NOLINT(google-explicit-constructor)
    return {data(), size()};
  }

  friend bool operator==(const Blob& a, const Blob& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  using Bytes = std::vector<std::uint8_t>;
  std::unique_ptr<Bytes> bytes_;
};

struct Sample {
  sim::SimTime time;
  /// Numeric channels (e.g. x/y/z acceleration, one temperature, …).
  Channels channels;
  /// Opaque payload for blob sensors (camera frame, fingerprint template).
  Blob blob;

  /// Bytes this sample occupies on the wire (Table I "Output Data" size).
  [[nodiscard]] std::size_t wire_bytes(std::size_t declared) const {
    return blob.empty() ? declared : blob.size();
  }
};

}  // namespace iotsim::sensors
