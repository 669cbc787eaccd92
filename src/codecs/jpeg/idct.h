// 8×8 forward/inverse DCT, quantisation tables and zig-zag order — the
// numerical core of the JPEG kernel (the paper's A9 runs exactly this IDCT).
//
// Every kernel here returns the same bits as the textbook formula, which
// tests/codecs/test_jpeg_golden.cpp keeps as the oracle: sums run in the
// same order, skipped terms are exact zeros, and the quantiser's reciprocal
// multiply falls back to a division wherever it could round the other way.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

namespace iotsim::codecs::jpeg {

using Block = std::array<double, 64>;      // spatial or frequency domain
using QuantTable = std::array<int, 64>;    // natural (row-major) order

/// Separable 2-D DCT-II on an 8×8 block (orthonormal scaling).
void fdct_8x8(const Block& in, Block& out);

/// Separable 2-D inverse DCT (DCT-III) — exact inverse of fdct_8x8.
void idct_8x8(const Block& in, Block& out);

/// Zig-zag scan order: kZigzagOrder[k] = natural index of the k-th coefficient.
inline constexpr std::array<int, 64> kZigzagOrder = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

/// ITU-T81 Annex K reference tables, scaled for quality ∈ [1,100].
[[nodiscard]] QuantTable luminance_quant_table(int quality);
[[nodiscard]] QuantTable chrominance_quant_table(int quality);

/// One quantisation table and its reciprocals.
class Quantizer {
 public:
  explicit Quantizer(const QuantTable& table);
  /// coeffs[n] = lround(freq[n] / table[n]) for finite freq, in natural
  /// order. Returns the nonzero outputs as a zig-zag-ordered mask: bit k is
  /// set iff coeffs[kZigzagOrder[k]] != 0.
  std::uint64_t quantize(const Block& freq, std::array<int, 64>& coeffs) const;

 private:
  QuantTable table_;
  std::array<double, 64> reciprocal_;
};

/// Colour transforms (ITU-R BT.601, full range as JFIF specifies).
struct Ycbcr {
  double y, cb, cr;
};
[[nodiscard]] inline Ycbcr rgb_to_ycbcr(std::uint8_t r, std::uint8_t g, std::uint8_t b) {
  const double rd = r, gd = g, bd = b;
  return Ycbcr{0.299 * rd + 0.587 * gd + 0.114 * bd,
               -0.168736 * rd - 0.331264 * gd + 0.5 * bd + 128.0,
               0.5 * rd - 0.418688 * gd - 0.081312 * bd + 128.0};
}

/// lround(v) clamped to [0, 255] for |v| < 2^63, without the libm call.
/// Clamping v to [0, 255] first gives the same byte; there lround is
/// truncation plus one step up when the remainder, which is exact, is at
/// least 0.5.
[[nodiscard]] inline std::uint8_t round_to_u8(double v) {
  const double c = std::min(std::max(v, 0.0), 255.0);
  const int i = static_cast<int>(c);
  return static_cast<std::uint8_t>(i + (c - i >= 0.5));
}

inline void ycbcr_to_rgb(double y, double cb, double cr, std::uint8_t& r, std::uint8_t& g,
                         std::uint8_t& b) {
  const double c = cb - 128.0, d = cr - 128.0;
  r = round_to_u8(y + 1.402 * d);
  g = round_to_u8(y - 0.344136 * c - 0.714136 * d);
  b = round_to_u8(y + 1.772 * c);
}

}  // namespace iotsim::codecs::jpeg
