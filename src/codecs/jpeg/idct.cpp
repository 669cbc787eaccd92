#include "codecs/jpeg/idct.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

namespace iotsim::codecs::jpeg {

namespace {

/// Cosine basis: cos((2x+1)uπ/16), its transpose, plus the orthonormal
/// scale factors.
struct DctBasis {
  double cosine[8][8];      // [x][u]
  double transposed[8][8];  // [u][x]
  double scale[8];

  DctBasis() {
    for (int x = 0; x < 8; ++x) {
      for (int u = 0; u < 8; ++u) {
        cosine[x][u] = std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
        transposed[u][x] = cosine[x][u];
      }
    }
    scale[0] = std::sqrt(1.0 / 8.0);
    for (int u = 1; u < 8; ++u) scale[u] = std::sqrt(2.0 / 8.0);
  }
};

const DctBasis& basis() {
  static const DctBasis b;
  return b;
}

}  // namespace

void fdct_8x8(const Block& in, Block& out) {
  const auto& b = basis();
  double tmp[64];
  // Rows.
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      double s = 0.0;
      for (int x = 0; x < 8; ++x) s += in[static_cast<std::size_t>(y * 8 + x)] * b.cosine[x][u];
      tmp[y * 8 + u] = s * b.scale[u];
    }
  }
  // Columns.
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double s = 0.0;
      for (int y = 0; y < 8; ++y) s += tmp[y * 8 + u] * b.cosine[y][v];
      out[static_cast<std::size_t>(v * 8 + u)] = s * b.scale[v];
    }
  }
}

void idct_8x8(const Block& in, Block& out) {
  const auto& b = basis();
  // A sum started at +0.0 never becomes -0.0, so adding a zero term never
  // changes it: all-zero columns, the zero rows below a column's last
  // nonzero coefficient, and the row terms of all-zero columns are skipped
  // with no effect on the bits.
  double cols[8][8];  // cols[i][y] = scale[u] * column u's sum at row y
  int live[8];
  int n_live = 0;
  for (int u = 0; u < 8; ++u) {
    int rows = 0;  // 1 + the last row with a nonzero coefficient
    for (int v = 0; v < 8; ++v) {
      if (in[static_cast<std::size_t>(v * 8 + u)] != 0.0) rows = v + 1;
    }
    if (rows == 0) continue;
    // Columns: sum_v (scale[v] in[v][u]) cos[y][v].
    double acc[8] = {};
    for (int v = 0; v < rows; ++v) {
      const double p = b.scale[v] * in[static_cast<std::size_t>(v * 8 + u)];
      for (int y = 0; y < 8; ++y) acc[y] += p * b.transposed[v][y];
    }
    for (int y = 0; y < 8; ++y) cols[n_live][y] = b.scale[u] * acc[y];
    live[n_live++] = u;
  }
  // Rows: out[y][x] = sum_u (scale[u] column_u[y]) cos[x][u].
  for (int y = 0; y < 8; ++y) {
    double acc[8] = {};
    for (int i = 0; i < n_live; ++i) {
      const double p = cols[i][y];
      const double* c = b.transposed[live[i]];
      for (int x = 0; x < 8; ++x) acc[x] += p * c[x];
    }
    for (int x = 0; x < 8; ++x) out[static_cast<std::size_t>(y * 8 + x)] = acc[x];
  }
}

namespace {

/// kZigzagBit[n] = the bit of natural coefficient n in a zig-zag-ordered mask.
constexpr std::array<std::uint64_t, 64> kZigzagBit = [] {
  std::array<std::uint64_t, 64> bits{};
  for (std::size_t k = 0; k < 64; ++k) {
    bits[static_cast<std::size_t>(kZigzagOrder[k])] = std::uint64_t{1} << k;
  }
  return bits;
}();

constexpr std::array<int, 64> kLumaBase = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr std::array<int, 64> kChromaBase = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

QuantTable scale_table(const std::array<int, 64>& base, int quality) {
  quality = std::clamp(quality, 1, 100);
  const int scale = quality < 50 ? 5000 / quality : 200 - quality * 2;
  QuantTable out;
  for (int i = 0; i < 64; ++i) {
    out[static_cast<std::size_t>(i)] =
        std::clamp((base[static_cast<std::size_t>(i)] * scale + 50) / 100, 1, 255);
  }
  return out;
}

}  // namespace

QuantTable luminance_quant_table(int quality) { return scale_table(kLumaBase, quality); }
QuantTable chrominance_quant_table(int quality) { return scale_table(kChromaBase, quality); }

Quantizer::Quantizer(const QuantTable& table) : table_{table} {
  for (std::size_t n = 0; n < 64; ++n) reciprocal_[n] = 1.0 / table_[n];
}

std::uint64_t Quantizer::quantize(const Block& freq, std::array<int, 64>& coeffs) const {
  // q = freq * (1/table) carries two roundings, so it is within |q|·2^-51 of
  // the quotient freq / table and rounds like it unless a half-integer lies
  // that close. A negative slack flags those, and |q| > 2^31; the block is
  // then quantised again by exact division. Adding 1.5·2^52 rounds q to the
  // nearest integer, which lands in the low mantissa bits: lround's answer
  // away from ties.
  constexpr double kRoundMagic = 0x1.8p52;
  std::uint64_t slack_signs = 0;
  std::uint64_t nonzero = 0;
  for (std::size_t n = 0; n < 64; ++n) {
    const double q = freq[n] * reciprocal_[n];
    const double shifted = q + kRoundMagic;
    const double r = shifted - kRoundMagic;
    coeffs[n] = static_cast<std::int32_t>(std::bit_cast<std::uint64_t>(shifted));
    const double slack = 0.5 - std::abs(q - r) - std::abs(q) * 0x1p-48;
    slack_signs |= std::bit_cast<std::uint64_t>(slack) |
                   std::bit_cast<std::uint64_t>(0x1p31 - std::abs(q));
    // r is zero iff |q| < 0.5 (a tie at 0.5 is flagged): the sign of |q| - 0.5.
    const auto below_half = std::bit_cast<std::uint64_t>(std::abs(q) - 0.5) >> 63;
    nonzero |= kZigzagBit[n] & (below_half - 1);
  }
  if ((slack_signs >> 63) == 0) return nonzero;
  nonzero = 0;
  for (std::size_t n = 0; n < 64; ++n) {
    coeffs[n] = static_cast<int>(std::lround(freq[n] / table_[n]));
    nonzero |= coeffs[n] != 0 ? kZigzagBit[n] : 0;
  }
  return nonzero;
}

}  // namespace iotsim::codecs::jpeg
