// JPEG entropy-coding plumbing: canonical Huffman tables (ITU-T81 Annex K
// defaults), bit-level IO with 0xFF byte stuffing, and magnitude coding.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace iotsim::codecs::jpeg {

class BitReader;

/// Canonical Huffman table built from the JPEG (BITS, HUFFVAL) description.
class HuffmanTable {
 public:
  HuffmanTable() = default;
  /// `bits[i]` = number of codes of length i+1 (16 entries); `vals` are the
  /// symbols in code order.
  HuffmanTable(std::span<const std::uint8_t> bits, std::span<const std::uint8_t> vals);

  struct CodeWord {
    std::uint16_t code = 0;
    std::uint8_t length = 0;  // 0 = symbol not in table
  };
  [[nodiscard]] CodeWord encode(std::uint8_t symbol) const { return encode_[symbol]; }

  /// Next symbol, or nullopt on an invalid code or at end-of-data/marker.
  /// Codes of up to 9 bits (kLookaheadBits) come from one table lookup; longer
  /// ones walk the mincode/maxcode/valptr scheme (Annex F) bit by bit.
  [[nodiscard]] std::optional<std::uint8_t> decode_symbol(BitReader& reader) const;

  // ITU-T81 Annex K default tables.
  [[nodiscard]] static const HuffmanTable& dc_luminance();
  [[nodiscard]] static const HuffmanTable& ac_luminance();
  [[nodiscard]] static const HuffmanTable& dc_chrominance();
  [[nodiscard]] static const HuffmanTable& ac_chrominance();

  [[nodiscard]] const std::vector<std::uint8_t>& spec_bits() const { return bits_; }
  [[nodiscard]] const std::vector<std::uint8_t>& spec_vals() const { return vals_; }

 private:
  static constexpr int kLookaheadBits = 9;
  struct Lookup {
    std::uint8_t symbol = 0;
    std::uint8_t length = 0;  // 0 = no valid code of <= kLookaheadBits bits
  };
  [[nodiscard]] std::optional<std::uint8_t> decode_slow(BitReader& reader) const;

  std::array<CodeWord, 256> encode_{};
  std::array<Lookup, 1u << kLookaheadBits> lookup_{};
  std::array<std::int32_t, 17> mincode_{};
  std::array<std::int32_t, 17> maxcode_{};  // -1 when no codes of that length
  std::array<std::int32_t, 17> valptr_{};
  std::vector<std::uint8_t> bits_;
  std::vector<std::uint8_t> vals_;
};

/// MSB-first bit writer with JPEG byte stuffing (0xFF → 0xFF 0x00). Bits
/// leave the accumulator 32 at a time; take() the output after flush().
class BitWriter {
 public:
  BitWriter() = default;
  /// Appends to `out` (e.g. a stream whose headers are already written).
  explicit BitWriter(std::vector<std::uint8_t> out) : out_{std::move(out)} {}

  /// Appends the low `count` bits of `value`, MSB first; count in [0, 32].
  void put_bits(std::uint32_t value, int count) {
    assert(count >= 0 && count <= 32);
    acc_ = (acc_ << count) | (value & ((std::uint64_t{1} << count) - 1u));
    bit_count_ += count;
    if (bit_count_ >= 32) {
      bit_count_ -= 32;
      put_word(static_cast<std::uint32_t>(acc_ >> bit_count_));
    }
  }
  /// Pads the final partial byte with 1-bits (JPEG convention) and writes
  /// out every pending bit.
  void flush();
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put_byte(std::uint8_t b) {
    out_.push_back(b);
    if (b == 0xFF) out_.push_back(0x00);  // stuffing
  }
  void put_word(std::uint32_t w) {
    // Stuffing needs a per-byte test only when some byte of w is 0xFF,
    // that is, when ~w has a zero byte.
    const std::uint32_t inv = ~w;
    const bool has_ff = ((inv - 0x01010101u) & ~inv & 0x80808080u) != 0;
    for (int shift = 24; shift >= 0; shift -= 8) {
      const auto b = static_cast<std::uint8_t>(w >> shift);
      out_.push_back(b);
      if (has_ff && b == 0xFF) out_.push_back(0x00);  // stuffing
    }
  }

  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;  // the low bit_count_ bits are pending
  int bit_count_ = 0;      // < 32 between calls
};

/// MSB-first bit reader that un-stuffs 0xFF 0x00 and stops at markers. It
/// buffers up to 64 bits ahead; the entropy data ends before an 0xFF that
/// is not followed by 0x00 (a marker, or the end of the data).
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_{data} {}

  /// Reads `count` (0..32) bits as an unsigned value; nullopt if the
  /// entropy data ends first.
  [[nodiscard]] std::optional<std::uint32_t> read_bits(int count) {
    assert(count >= 0 && count <= 32);
    if (count == 0) return 0u;
    if (bits_ < count) {
      refill();
      if (bits_ < count) return std::nullopt;
    }
    const auto v = static_cast<std::uint32_t>(acc_ >> (64 - count));
    consume(count);
    return v;
  }
  /// Input bytes consumed so far: through the byte holding the last bit
  /// read, and the 0x00 stuffed after it.
  [[nodiscard]] std::size_t consumed() const;

 private:
  friend class HuffmanTable;

  /// Tops the buffer up to at least 57 bits unless the entropy data ends.
  void refill();
  /// The next 16 bits, left-aligned and zero past the end of the data.
  [[nodiscard]] std::uint32_t peek16() {
    if (bits_ < 16) refill();
    return static_cast<std::uint32_t>(acc_ >> 48);
  }
  void consume(int count) {
    acc_ <<= count;
    bits_ -= count;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;    // next input byte to buffer
  std::uint64_t acc_ = 0;  // buffered bits, MSB first; zero below them
  int bits_ = 0;           // number of buffered bits
  bool ended_ = false;     // reached the end of the data or a marker
};

inline std::optional<std::uint8_t> HuffmanTable::decode_symbol(BitReader& reader) const {
  const std::uint32_t window = reader.peek16();
  const Lookup hit = lookup_[window >> (16 - kLookaheadBits)];
  if (hit.length == 0 || hit.length > reader.bits_) return decode_slow(reader);
  reader.consume(hit.length);
  return hit.symbol;
}

/// JPEG magnitude category (number of bits to represent v).
[[nodiscard]] inline int bit_category(int v) {
  return std::bit_width(static_cast<unsigned>(v < 0 ? -v : v));
}
/// JPEG signed-magnitude encoding of v in `category` = bit_category(v)
/// bits: v, or v + 2^category - 1 for negative v. The latter is the low
/// `category` bits of v - 1, which needs no branch on the sign.
[[nodiscard]] inline std::uint32_t magnitude_bits(int v, int category) {
  return static_cast<std::uint32_t>(v + (v >> 31)) & ((1u << category) - 1u);
}
/// Inverse of magnitude_bits: values below 2^(category-1) are negative,
/// bits - (2^category - 1), selected without a branch on the sign.
[[nodiscard]] inline int extend_magnitude(std::uint32_t bits, int category) {
  if (category == 0) return 0;
  const int negative = -static_cast<int>(bits < (1u << (category - 1)));  // 0 or all ones
  return static_cast<int>(bits) - (negative & ((1 << category) - 1));
}

}  // namespace iotsim::codecs::jpeg
