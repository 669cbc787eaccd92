// Little-endian binary read/write primitives for the result cache's codec.
//
// The writer mirrors core/sweep.cpp's ByteSink layout rules (little-endian
// integers, IEEE-754 bit patterns for doubles) so decoded doubles are
// bit-identical to what was encoded — the byte-identity guarantee of a warm
// cache run rests on this. The reader is bounds-checked and latching: any
// out-of-range read sets fail() and every subsequent read returns a zero
// value, so decoders check ok() once at the end instead of after every
// field, and a truncated entry can never walk off the buffer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "sim/sim_time.h"

namespace iotsim::cache {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void dur(sim::Duration d) { i64(d.count_ns()); }
  void time(sim::SimTime t) { i64(t.count_ns()); }
  void str(std::string_view s) {
    u64(s.size());
    bytes_.append(s);
  }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::string take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_{bytes} {}

  [[nodiscard]] std::uint8_t u8() {
    const char* p = take(1);
    return p ? static_cast<std::uint8_t>(*p) : 0;
  }
  [[nodiscard]] std::uint32_t u32() {
    const char* p = take(4);
    if (!p) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
  }
  [[nodiscard]] std::uint64_t u64() {
    const char* p = take(8);
    if (!p) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    return v;
  }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::size_t size() { return static_cast<std::size_t>(u64()); }
  [[nodiscard]] sim::Duration dur() { return sim::Duration::ns(i64()); }
  [[nodiscard]] sim::SimTime time() { return sim::SimTime::from_ns(i64()); }

  [[nodiscard]] std::string str() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_) {  // also catches absurd lengths in corrupt data
      failed_ = true;
      return {};
    }
    const char* p = take(static_cast<std::size_t>(n));
    return p ? std::string{p, static_cast<std::size_t>(n)} : std::string{};
  }

  /// Reads an element count and sanity-bounds it: a corrupt count larger
  /// than the remaining bytes (each element costs >= 1 byte) latches fail()
  /// and returns 0, so decode loops cannot spin on garbage.
  [[nodiscard]] std::size_t count() {
    const std::uint64_t n = u64();
    if (n > bytes_.size() - pos_) {
      failed_ = true;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] bool at_end() const { return pos_ == bytes_.size(); }

 private:
  const char* take(std::size_t n) {
    if (failed_ || n > bytes_.size() - pos_) {
      failed_ = true;
      return nullptr;
    }
    const char* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace iotsim::cache
