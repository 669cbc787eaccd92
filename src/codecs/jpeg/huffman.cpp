#include "codecs/jpeg/huffman.h"

#include <cassert>

namespace iotsim::codecs::jpeg {

HuffmanTable::HuffmanTable(std::span<const std::uint8_t> bits,
                           std::span<const std::uint8_t> vals)
    : bits_{bits.begin(), bits.end()}, vals_{vals.begin(), vals.end()} {
  assert(bits.size() == 16);

  // Generate canonical code values (Annex C).
  std::vector<std::uint8_t> code_lengths;
  for (int l = 1; l <= 16; ++l) {
    for (int i = 0; i < bits[static_cast<std::size_t>(l - 1)]; ++i) {
      code_lengths.push_back(static_cast<std::uint8_t>(l));
    }
  }
  assert(code_lengths.size() == vals.size());

  std::vector<std::uint16_t> codes(code_lengths.size());
  std::uint16_t code = 0;
  int prev_len = code_lengths.empty() ? 0 : code_lengths[0];
  for (std::size_t i = 0; i < code_lengths.size(); ++i) {
    while (prev_len < code_lengths[i]) {
      code = static_cast<std::uint16_t>(code << 1);
      ++prev_len;
    }
    codes[i] = code++;
  }

  for (std::size_t i = 0; i < vals.size(); ++i) {
    encode_[vals[i]] = CodeWord{codes[i], code_lengths[i]};
  }

  // Decoder tables (Annex F.2.2.3).
  std::size_t k = 0;
  for (int l = 1; l <= 16; ++l) {
    if (bits[static_cast<std::size_t>(l - 1)] == 0) {
      maxcode_[static_cast<std::size_t>(l)] = -1;
      continue;
    }
    valptr_[static_cast<std::size_t>(l)] = static_cast<std::int32_t>(k);
    mincode_[static_cast<std::size_t>(l)] = codes[k];
    k += bits[static_cast<std::size_t>(l - 1)];
    maxcode_[static_cast<std::size_t>(l)] = codes[k - 1];
  }

  // One-lookup decode: for every kLookaheadBits-bit window, the result of
  // the bit-serial walk below when it ends within the window.
  for (std::uint32_t window = 0; window < lookup_.size(); ++window) {
    for (int l = 1; l <= kLookaheadBits; ++l) {
      const auto code = static_cast<std::int32_t>(window >> (kLookaheadBits - l));
      const auto ul = static_cast<std::size_t>(l);
      if (maxcode_[ul] < 0 || code > maxcode_[ul]) continue;
      const auto idx = static_cast<std::size_t>(valptr_[ul] + code - mincode_[ul]);
      if (idx < vals_.size()) lookup_[window] = Lookup{vals_[idx], static_cast<std::uint8_t>(l)};
      break;
    }
  }
}

std::optional<std::uint8_t> HuffmanTable::decode_slow(BitReader& reader) const {
  // decode_symbol has refilled: fewer than 16 bits means the data ends.
  for (int l = 1; l <= 16; ++l) {
    if (l > reader.bits_) return std::nullopt;
    const auto code = static_cast<std::int32_t>(reader.acc_ >> (64 - l));
    const auto ul = static_cast<std::size_t>(l);
    if (maxcode_[ul] >= 0 && code <= maxcode_[ul]) {
      reader.consume(l);
      const auto idx = static_cast<std::size_t>(valptr_[ul] + code - mincode_[ul]);
      if (idx >= vals_.size()) return std::nullopt;
      return vals_[idx];
    }
  }
  return std::nullopt;  // invalid code
}

namespace {
// ITU-T81 Annex K.3 default tables.
constexpr std::uint8_t kDcLumaBits[16] = {0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0};
constexpr std::uint8_t kDcLumaVals[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};

constexpr std::uint8_t kDcChromaBits[16] = {0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
constexpr std::uint8_t kDcChromaVals[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};

constexpr std::uint8_t kAcLumaBits[16] = {0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d};
constexpr std::uint8_t kAcLumaVals[] = {
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61,
    0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08, 0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52,
    0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25,
    0x26, 0x27, 0x28, 0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63, 0x64,
    0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x83,
    0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99,
    0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
    0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca, 0xd2, 0xd3,
    0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8,
    0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa};

constexpr std::uint8_t kAcChromaBits[16] = {0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77};
constexpr std::uint8_t kAcChromaVals[] = {
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61,
    0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91, 0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33,
    0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1, 0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18,
    0x19, 0x1a, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5a, 0x63,
    0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79, 0x7a,
    0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97,
    0x98, 0x99, 0x9a, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
    0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9, 0xca,
    0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7,
    0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa};
}  // namespace

const HuffmanTable& HuffmanTable::dc_luminance() {
  static const HuffmanTable t{kDcLumaBits, kDcLumaVals};
  return t;
}
const HuffmanTable& HuffmanTable::ac_luminance() {
  static const HuffmanTable t{kAcLumaBits, kAcLumaVals};
  return t;
}
const HuffmanTable& HuffmanTable::dc_chrominance() {
  static const HuffmanTable t{kDcChromaBits, kDcChromaVals};
  return t;
}
const HuffmanTable& HuffmanTable::ac_chrominance() {
  static const HuffmanTable t{kAcChromaBits, kAcChromaVals};
  return t;
}

void BitWriter::flush() {
  const int pad = (8 - bit_count_ % 8) % 8;
  put_bits((1u << pad) - 1u, pad);  // pad with ones
  while (bit_count_ > 0) {
    bit_count_ -= 8;
    put_byte(static_cast<std::uint8_t>(acc_ >> bit_count_));
  }
}

void BitReader::refill() {
  while (bits_ <= 56 && !ended_) {
    if (pos_ >= data_.size()) {
      ended_ = true;
      break;
    }
    const std::uint8_t b = data_[pos_];
    if (b == 0xFF) {
      // Only a stuffed 0xFF 0x00 is data; anything else is a marker.
      if (pos_ + 1 >= data_.size() || data_[pos_ + 1] != 0x00) {
        ended_ = true;
        break;
      }
      pos_ += 2;
    } else {
      ++pos_;
    }
    acc_ |= std::uint64_t{b} << (56 - bits_);
    bits_ += 8;
  }
}

std::size_t BitReader::consumed() const {
  // The whole bytes still buffered sit below the partly read one; each
  // buffered 0xFF also took its stuffed 0x00 from the input.
  std::size_t pending = 0;
  for (int j = 0; j < bits_ / 8; ++j) {
    pending += ((acc_ >> (64 - bits_ + 8 * j)) & 0xFF) == 0xFF ? 2 : 1;
  }
  return pos_ - pending;
}

}  // namespace iotsim::codecs::jpeg
