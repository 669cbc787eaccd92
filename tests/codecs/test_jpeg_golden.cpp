// Golden bytes for the camera frame pipeline (CameraSignal → jpeg::encode →
// jpeg::decode). The frame bytes reach scenario results through the wire
// size, Blynk's payload and A9's mean luma, so the codec must keep every JPEG
// byte and every decoded pixel. The CRCs and stats below are those of the
// textbook codec (divide-and-lround quantiser, bit-serial reader), whose
// arithmetic this file keeps as the oracle for the fast kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <span>
#include <vector>

#include "codecs/jpeg/huffman.h"
#include "codecs/jpeg/idct.h"
#include "codecs/jpeg/jpeg_decoder.h"
#include "codecs/jpeg/jpeg_encoder.h"
#include "codecs/util/checksum.h"
#include "sensors/signal_generators.h"
#include "sim/random.h"

namespace iotsim::codecs::jpeg {
namespace {

// ------------------------------------------------------ golden frames ----

struct Golden {
  std::size_t size;
  std::uint32_t crc;         // CRC-32 of the JFIF bytes
  std::uint32_t pixels_crc;  // CRC-32 of the decoded RGB
  int width, height;
  std::size_t blocks, entropy_bytes;
};

void expect_golden(std::span<const std::uint8_t> jfif, const Golden& want) {
  EXPECT_EQ(jfif.size(), want.size);
  EXPECT_EQ(util::crc32(jfif), want.crc);
  const auto decoded = decode(jfif);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(util::crc32(decoded.image->rgb), want.pixels_crc);
  EXPECT_EQ(decoded.stats.width, want.width);
  EXPECT_EQ(decoded.stats.height, want.height);
  EXPECT_EQ(decoded.stats.components, 3);
  EXPECT_EQ(decoded.stats.blocks_decoded, want.blocks);
  EXPECT_EQ(decoded.stats.entropy_bytes, want.entropy_bytes);
}

sim::SimTime at_seconds(double s) {
  return sim::SimTime::from_ns(static_cast<std::int64_t>(std::llround(s * 1e9)));
}

// The next frame of `camera`, taken at `t` seconds, matches `want`. The
// frames of a test come from one generator in sequence, so the pins also
// hold the number of noise draws per frame.
void expect_frame(sensors::CameraSignal& camera, double t, const Golden& want) {
  SCOPED_TRACE(t);
  sensors::Sample s;
  camera.generate(at_seconds(t), s);
  ASSERT_EQ(s.channels.size(), 1u);
  EXPECT_EQ(s.channels[0], static_cast<double>(s.blob.size()));
  expect_golden(s.blob, want);
}

TEST(JpegGolden, DefaultCameraFrames) {
  // t = 0: object at the left end of its path; t = 6.975 s: at the right
  // end (x = 279 of 320).
  sensors::CameraSignal camera{{}, sim::Rng{11}};
  expect_frame(camera, 0.0, {20083, 0xac386667, 0x16917688, 320, 240, 3600, 19458});
  expect_frame(camera, 6.975, {20238, 0x6808ce5b, 0xa876bf73, 320, 240, 3600, 19613});
  expect_frame(camera, 3.3, {20303, 0x61273269, 0xd78c0682, 320, 240, 3600, 19678});
}

TEST(JpegGolden, NonMultipleOf8CameraFrames) {
  // 90×36: partial edge blocks, and the object is clipped at the bottom.
  sensors::CameraSignal camera{{90, 36, 60, true}, sim::Rng{12}};
  expect_frame(camera, 0.0, {1348, 0xa1b465a0, 0x2c8c6d24, 90, 36, 180, 723});
  expect_frame(camera, 1.23, {1424, 0xdba84a82, 0x47e5b2ea, 90, 36, 180, 799});
}

TEST(JpegGolden, StillCameraFrame) {
  sensors::CameraSignal camera{{64, 48, 90, false}, sim::Rng{13}};
  expect_frame(camera, 0.5, {2034, 0xf9170a9b, 0x00df2b9b, 64, 48, 144, 1409});
}

Image noise_image(std::uint64_t seed, int w, int h) {
  sim::Rng rng{seed};
  auto img = Image::allocate(w, h);
  for (auto& v : img.rgb) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return img;
}

TEST(JpegGolden, Subsampled420Noise) {
  EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsample_420 = true;
  const auto jfif = encode(noise_image(14, 50, 34), cfg);
  expect_golden(jfif, {2403, 0x7e12d31b, 0x9c0d3ad1, 50, 34, 72, 1778});
}

TEST(JpegGolden, LowQuality444Noise) {
  const auto jfif = encode(noise_image(14, 50, 34), EncoderConfig{30});
  expect_golden(jfif, {1751, 0x378df016, 0xf3b21dea, 50, 34, 105, 1126});
}

TEST(JpegGolden, EncodedFrameHasNoSpareCapacity) {
  // A camera sample holds its frame's buffer for the rest of its window.
  const auto jfif = encode(noise_image(15, 320, 240), EncoderConfig{60});
  EXPECT_GT(jfif.size(), 0u);
  EXPECT_EQ(jfif.capacity(), jfif.size());
}

// ------------------------------------------------- reference kernels ----

struct ReferenceBasis {
  double cosine[8][8];
  double scale[8];
  ReferenceBasis() {
    for (int x = 0; x < 8; ++x) {
      for (int u = 0; u < 8; ++u) {
        cosine[x][u] = std::cos((2.0 * x + 1.0) * u * std::numbers::pi / 16.0);
      }
    }
    scale[0] = std::sqrt(1.0 / 8.0);
    for (int u = 1; u < 8; ++u) scale[u] = std::sqrt(2.0 / 8.0);
  }
};

const ReferenceBasis kBasis;

void reference_fdct(const Block& in, Block& out) {
  double tmp[64];
  for (int y = 0; y < 8; ++y) {
    for (int u = 0; u < 8; ++u) {
      double s = 0.0;
      for (int x = 0; x < 8; ++x) {
        s += in[static_cast<std::size_t>(y * 8 + x)] * kBasis.cosine[x][u];
      }
      tmp[y * 8 + u] = s * kBasis.scale[u];
    }
  }
  for (int u = 0; u < 8; ++u) {
    for (int v = 0; v < 8; ++v) {
      double s = 0.0;
      for (int y = 0; y < 8; ++y) s += tmp[y * 8 + u] * kBasis.cosine[y][v];
      out[static_cast<std::size_t>(v * 8 + u)] = s * kBasis.scale[v];
    }
  }
}

void reference_idct(const Block& in, Block& out) {
  double tmp[64];
  for (int u = 0; u < 8; ++u) {
    for (int y = 0; y < 8; ++y) {
      double s = 0.0;
      for (int v = 0; v < 8; ++v) {
        s += kBasis.scale[v] * in[static_cast<std::size_t>(v * 8 + u)] * kBasis.cosine[y][v];
      }
      tmp[y * 8 + u] = s;
    }
  }
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      double s = 0.0;
      for (int u = 0; u < 8; ++u) s += kBasis.scale[u] * tmp[y * 8 + u] * kBasis.cosine[x][u];
      out[static_cast<std::size_t>(y * 8 + x)] = s;
    }
  }
}

std::array<int, 64> reference_quantize(const Block& freq, const QuantTable& quant) {
  std::array<int, 64> out{};
  for (std::size_t n = 0; n < 64; ++n) out[n] = static_cast<int>(std::lround(freq[n] / quant[n]));
  return out;
}

std::uint64_t zigzag_nonzero_mask(const std::array<int, 64>& natural) {
  std::uint64_t mask = 0;
  for (std::size_t k = 0; k < 64; ++k) {
    mask |= std::uint64_t{natural[static_cast<std::size_t>(kZigzagOrder[k])] != 0} << k;
  }
  return mask;
}

// Bit patterns, so that a changed sign of zero also shows.
void expect_same_bits(const Block& got, const Block& want) {
  for (std::size_t i = 0; i < 64; ++i) {
    const auto got_bits = std::bit_cast<std::uint64_t>(got[i]);
    const auto want_bits = std::bit_cast<std::uint64_t>(want[i]);
    EXPECT_EQ(got_bits, want_bits) << "coefficient " << i << ": " << got[i] << " vs " << want[i];
  }
}

std::uint8_t clamped_lround(double v) {
  return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
}

// ----------------------------------------------------- DCT and quant ----

TEST(JpegKernels, FdctMatchesReferenceBitForBit) {
  sim::Rng rng{21};
  for (int trial = 0; trial < 400; ++trial) {
    Block in, got, want;
    for (auto& v : in) {
      if (trial % 2 == 0) {
        v = static_cast<double>(rng.uniform_int(0, 255)) - 128.0;
      } else {
        v = rng.uniform(-128.0, 128.0);
      }
    }
    fdct_8x8(in, got);
    reference_fdct(in, want);
    expect_same_bits(got, want);
  }
}

TEST(JpegKernels, IdctMatchesReferenceBitForBit) {
  sim::Rng rng{22};
  const QuantTable quant = luminance_quant_table(80);
  for (int trial = 0; trial < 400; ++trial) {
    // Dequantised blocks as the decoder builds them: mostly zero, some
    // columns empty, plus fully dense ones.
    Block in{};
    const double density = trial % 4 == 0 ? 1.0 : rng.uniform(0.0, 0.4);
    for (std::size_t i = 0; i < 64; ++i) {
      if (rng.uniform() < density) {
        in[i] = static_cast<double>(rng.uniform_int(-40, 40)) * quant[i];
      }
    }
    if (trial % 7 == 0) in[3] = -0.0;  // a signed zero counts as zero
    Block got, want;
    idct_8x8(in, got);
    reference_idct(in, want);
    expect_same_bits(got, want);
  }
}

TEST(JpegKernels, QuantizerMatchesLroundOnRandomBlocks) {
  sim::Rng rng{23};
  for (int quality : {10, 50, 60, 80, 95, 100}) {
    const QuantTable tables[] = {luminance_quant_table(quality), chrominance_quant_table(quality)};
    for (const QuantTable& table : tables) {
      const Quantizer quantizer{table};
      for (int trial = 0; trial < 100; ++trial) {
        Block spatial, freq;
        for (auto& v : spatial) v = static_cast<double>(rng.uniform_int(0, 255)) - 128.0;
        fdct_8x8(spatial, freq);
        std::array<int, 64> got{};
        const std::uint64_t mask = quantizer.quantize(freq, got);
        const auto want = reference_quantize(freq, table);
        EXPECT_EQ(got, want);
        EXPECT_EQ(mask, zigzag_nonzero_mask(want));
      }
    }
  }
}

TEST(JpegKernels, QuantizerMatchesLroundAtHalfIntegerBoundaries) {
  // freq = (k ± 0.5)·q and its neighbours one ulp either side: the values
  // where a reciprocal multiply could round the other way.
  for (int q = 1; q <= 255; ++q) {
    QuantTable table;
    table.fill(q);
    const Quantizer quantizer{table};
    for (int k = -70; k <= 70; ++k) {
      Block freq;
      const double tie = (k + 0.5) * q;
      for (std::size_t i = 0; i < 64; ++i) {
        if (i % 4 == 0) {
          freq[i] = tie;
        } else if (i % 4 == 1) {
          freq[i] = std::nextafter(tie, 1e9);
        } else if (i % 4 == 2) {
          freq[i] = std::nextafter(tie, -1e9);
        } else {
          freq[i] = -tie;
        }
      }
      std::array<int, 64> got{};
      const std::uint64_t mask = quantizer.quantize(freq, got);
      const auto want = reference_quantize(freq, table);
      ASSERT_EQ(got, want) << "q=" << q << " k=" << k;
      ASSERT_EQ(mask, zigzag_nonzero_mask(want));
    }
  }
}

TEST(JpegKernels, RoundToU8MatchesClampedLround) {
  std::vector<double> values{0.0, -0.0, 0.5, -0.5, -1.5, 254.5, 255.0, 255.5, 256.0, -1e9, 1e9};
  values.insert(values.end(), {0.49999999999999994, -0.49999999999999994, 4e18, -4e18});
  for (int k = -300; k <= 600; ++k) {
    const double half = k + 0.5;
    values.push_back(half);
    values.push_back(std::nextafter(half, 1e9));
    values.push_back(std::nextafter(half, -1e9));
    values.push_back(k);
  }
  sim::Rng rng{24};
  for (int i = 0; i < 5000; ++i) values.push_back(rng.uniform(-300.0, 600.0));
  for (double v : values) {
    EXPECT_EQ(round_to_u8(v), clamped_lround(v)) << v;
  }
}

TEST(JpegKernels, ColourConversionMatchesReference) {
  sim::Rng rng{25};
  for (int i = 0; i < 20000; ++i) {
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const double rd = r, gd = g, bd = b;
    const Ycbcr c = rgb_to_ycbcr(r, g, b);
    EXPECT_EQ(c.y, 0.299 * rd + 0.587 * gd + 0.114 * bd);
    EXPECT_EQ(c.cb, -0.168736 * rd - 0.331264 * gd + 0.5 * bd + 128.0);
    EXPECT_EQ(c.cr, 0.5 * rd - 0.418688 * gd - 0.081312 * bd + 128.0);

    // Decoder side, including out-of-range and half-integer inputs.
    const double y = i % 3 == 0 ? rng.uniform_int(-300, 600) + 0.5 : rng.uniform(-300.0, 600.0);
    const double cb = rng.uniform(-200.0, 450.0);
    const double cr = rng.uniform(-200.0, 450.0);
    std::uint8_t r2 = 0, g2 = 0, b2 = 0;
    ycbcr_to_rgb(y, cb, cr, r2, g2, b2);
    const double cc = cb - 128.0, d = cr - 128.0;
    EXPECT_EQ(r2, clamped_lround(y + 1.402 * d));
    EXPECT_EQ(g2, clamped_lround(y - 0.344136 * cc - 0.714136 * d));
    EXPECT_EQ(b2, clamped_lround(y + 1.772 * cc));
  }
}

// ----------------------------------------------------- entropy decode ----

// A bit-serial reader and the Annex F decode walk: the oracle for BitReader
// and HuffmanTable::decode_symbol.
class ReferenceReader {
 public:
  explicit ReferenceReader(std::span<const std::uint8_t> data) : data_{data} {}
  std::optional<int> next_bit() {
    if (bit_pos_ == 8) {
      if (pos_ >= data_.size()) return std::nullopt;
      current_ = data_[pos_++];
      if (current_ == 0xFF) {
        if (pos_ >= data_.size()) return std::nullopt;
        if (data_[pos_] != 0x00) return std::nullopt;
        ++pos_;
      }
      bit_pos_ = 0;
    }
    const int bit = (current_ >> (7 - bit_pos_)) & 1;
    ++bit_pos_;
    return bit;
  }
  std::optional<std::uint32_t> read_bits(int count) {
    std::uint32_t v = 0;
    for (int i = 0; i < count; ++i) {
      const auto bit = next_bit();
      if (!bit) return std::nullopt;
      v = (v << 1) | static_cast<std::uint32_t>(*bit);
    }
    return v;
  }
  std::optional<std::uint8_t> decode_symbol(const HuffmanTable& table) {
    const auto& bits = table.spec_bits();
    const auto& vals = table.spec_vals();
    std::int32_t code = 0;
    std::int32_t first = 0;  // first code of the current length
    std::size_t index = 0;   // index of that code's symbol
    for (std::size_t l = 0; l < 16; ++l) {
      const auto bit = next_bit();
      if (!bit) return std::nullopt;
      code = (code << 1) | *bit;
      const std::int32_t count = bits[l];
      if (count > 0 && code <= first + count - 1) {
        const auto idx = static_cast<std::size_t>(static_cast<std::int64_t>(index) + code - first);
        if (idx >= vals.size()) return std::nullopt;
        return vals[idx];
      }
      index += static_cast<std::size_t>(count);
      first = (first + count) << 1;
    }
    return std::nullopt;
  }
  std::size_t consumed() const { return pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  int bit_pos_ = 8;
  std::uint8_t current_ = 0;
};

const HuffmanTable& annex_k_table(std::int64_t i) {
  if (i == 0) return HuffmanTable::dc_luminance();
  if (i == 1) return HuffmanTable::ac_luminance();
  if (i == 2) return HuffmanTable::dc_chrominance();
  return HuffmanTable::ac_chrominance();
}

TEST(JpegKernels, BufferedReaderMatchesBitSerialReference) {
  // Random streams rich in 0xFF, stuffed zeros and markers; read mixed
  // symbols and raw bits until both readers fail, at the same point.
  sim::Rng rng{26};
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::uint8_t> data(static_cast<std::size_t>(rng.uniform_int(0, 120)));
    for (auto& b : data) {
      const auto pick = rng.uniform_int(0, 9);
      b = pick == 0 ? 0xFF : pick == 1 ? 0x00 : static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    BitReader fast{data};
    ReferenceReader ref{data};
    for (int step = 0;; ++step) {
      SCOPED_TRACE(step);
      if (rng.bernoulli(0.3)) {
        const int count = static_cast<int>(rng.uniform_int(0, 16));
        const auto a = fast.read_bits(count);
        const auto b = ref.read_bits(count);
        ASSERT_EQ(a, b);
        if (!a) break;
      } else {
        const HuffmanTable& table = annex_k_table(rng.uniform_int(0, 3));
        const auto a = table.decode_symbol(fast);
        const auto b = ref.decode_symbol(table);
        ASSERT_EQ(a, b);
        if (!a) break;
      }
      ASSERT_EQ(fast.consumed(), ref.consumed());
    }
  }
}

}  // namespace
}  // namespace iotsim::codecs::jpeg
