// Little-endian binary read/write primitives for the result cache's codec
// and core/sweep.cpp's scenario_key().
//
// Layout rules: little-endian integers, IEEE-754 bit patterns for doubles,
// so decoded doubles are bit-identical to what was encoded — the
// byte-identity guarantee of a warm cache run rests on this. The reader's
// reads carry the names of the writer's primitives and fill a reference,
// so one field walk serves both directions. The reader is
// bounds-checked and latching: any out-of-range read sets fail() and every
// subsequent read yields a zero value, so decoders check ok() once at the
// end instead of after every field, and a truncated entry can never walk
// off the buffer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

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
  /// An enum stored as one byte.
  template <class E>
    requires std::is_enum_v<E>
  void enum_u8(E e) {
    u8(static_cast<std::uint8_t>(e));
  }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::string take() && { return std::move(bytes_); }

 private:
  std::string bytes_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_{bytes} {}

  void u32(std::uint32_t& v) { v = static_cast<std::uint32_t>(le(4)); }
  void u64(std::uint64_t& v) { v = le(8); }
  void i32(std::int32_t& v) { v = static_cast<std::int32_t>(static_cast<std::uint32_t>(le(4))); }
  void f64(double& v) { v = std::bit_cast<double>(le(8)); }
  void boolean(bool& v) { v = le(1) != 0; }
  void size(std::size_t& v) { v = static_cast<std::size_t>(le(8)); }
  void dur(sim::Duration& d) { d = sim::Duration::ns(static_cast<std::int64_t>(le(8))); }
  void time(sim::SimTime& t) { t = sim::SimTime::from_ns(static_cast<std::int64_t>(le(8))); }
  void str(std::string& s) {
    const auto n = static_cast<std::size_t>(le(8));
    if (const char* p = take(n)) {  // take() also rejects absurd lengths in corrupt data
      s.assign(p, n);
    } else {
      s.clear();
    }
  }
  template <class E>
    requires std::is_enum_v<E>
  void enum_u8(E& e) {
    e = static_cast<E>(le(1));
  }

  /// Reads an element count and sanity-bounds it: a corrupt count larger
  /// than the remaining bytes (each element costs >= 1 byte) latches fail()
  /// and returns 0, so decode loops cannot spin on garbage.
  [[nodiscard]] std::size_t count() {
    const std::uint64_t n = le(8);
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

  /// The next `n` (<= 8) bytes as a little-endian integer; 0 once failed.
  std::uint64_t le(std::size_t n) {
    const char* p = take(n);
    if (!p) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace iotsim::cache
