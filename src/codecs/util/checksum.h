// Checksums for the file-sync kernel (A6): CRC-32 (IEEE 802.3) for chunk
// integrity and an Adler-32-style rolling checksum for chunk boundaries.
#pragma once

#include <cstdint>
#include <span>

namespace iotsim::codecs::util {

[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Rolling Adler-32: supports O(1) window slide, rsync-style.
class RollingAdler32 {
 public:
  explicit RollingAdler32(std::size_t window) : window_{window} {}

  /// Initialises from the first `window` bytes.
  void init(std::span<const std::uint8_t> first_window);
  /// Slides the window one byte: removes `out_byte`, appends `in_byte`.
  void roll(std::uint8_t out_byte, std::uint8_t in_byte);

  [[nodiscard]] std::uint32_t value() const { return (b_ << 16) | a_; }

 private:
  static constexpr std::uint32_t kMod = 65521;
  std::size_t window_;
  std::uint32_t a_ = 1;
  std::uint32_t b_ = 0;
};

}  // namespace iotsim::codecs::util
