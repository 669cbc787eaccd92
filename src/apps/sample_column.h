// One sensor's window of readings, stored as columns.
//
// Under Batching and COM the MCU holds a whole window of readings before it
// raises one interrupt (§III), and a lockstep fleet holds every hub's window
// at once. A column keeps the readings' times and channel values in two flat
// vectors, 16 bytes for a one-channel reading and 32 for the accelerometer's
// three, against 48 for a `sensors::Sample`. Payloads (camera frame,
// fingerprint template) sit in a third vector that only blob sensors fill.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "check/check.h"
#include "sensors/sample.h"
#include "sim/sim_time.h"

namespace iotsim::apps {

class SampleColumn {
 public:
  /// Makes room for `readings` readings of `width` channels each.
  void reserve(std::size_t readings, std::size_t width) {
    times_.reserve(readings);
    values_.reserve(readings * width);
  }

  /// Appends a reading. The first reading fixes the column's channel
  /// count, and every later one must carry the same count.
  void add(sensors::Sample sample) {
    const std::size_t width = sample.channels.size();
    if (times_.empty()) {
      width_ = static_cast<std::uint8_t>(width);
    } else {
      IOTSIM_CHECK_EQ(width, std::size_t{width_},
                      "reading %zu of a column carries a different channel count",
                      times_.size());
    }
    times_.push_back(sample.time);
    for (double v : sample.channels) values_.push_back(v);
    if (!sample.blob.empty()) {
      // Readings before this one carried no payload: give them empty slots.
      blobs_.resize(times_.size() - 1);
      blobs_.push_back(std::move(sample.blob));
    }
  }

  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] bool empty() const { return times_.empty(); }

  [[nodiscard]] sim::SimTime time(std::size_t i) const { return times_[i]; }
  /// Channel `c` of reading `i`.
  [[nodiscard]] double value(std::size_t i, std::size_t c = 0) const {
    IOTSIM_CHECK_LT(c, std::size_t{width_}, "channel index past the column's width");
    return values_[i * width_ + c];
  }
  [[nodiscard]] std::span<const double> channels(std::size_t i) const {
    return {values_.data() + i * width_, width_};
  }
  /// Payload of reading `i`; empty for a reading that carried none.
  [[nodiscard]] const sensors::Blob& blob(std::size_t i) const {
    return i < blobs_.size() ? blobs_[i] : kNoBlob;
  }

  /// Bytes the column's readings occupy on the wire: a payload's own size,
  /// or `declared` (Table I's output size) for a reading without one.
  [[nodiscard]] std::size_t wire_bytes(std::size_t declared) const {
    std::size_t bytes = 0;
    std::size_t with_payload = 0;
    for (const auto& b : blobs_) {
      if (!b.empty()) {
        bytes += b.size();
        ++with_payload;
      }
    }
    return bytes + (size() - with_payload) * declared;
  }

 private:
  static inline const sensors::Blob kNoBlob{};

  std::vector<sim::SimTime> times_;
  std::vector<double> values_;  // reading-major: width_ values per reading
  std::vector<sensors::Blob> blobs_;  // empty unless a reading carried a payload
  std::uint8_t width_ = 0;
};

}  // namespace iotsim::apps
