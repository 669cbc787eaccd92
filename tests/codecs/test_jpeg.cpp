#include <gtest/gtest.h>

#include <cmath>

#include "codecs/jpeg/huffman.h"
#include "codecs/jpeg/idct.h"
#include "codecs/jpeg/image.h"
#include "codecs/jpeg/jpeg_decoder.h"
#include "codecs/jpeg/jpeg_encoder.h"
#include "sim/random.h"

namespace iotsim::codecs::jpeg {
namespace {

TEST(Dct, IdctInvertsFdct) {
  sim::Rng rng{1};
  Block spatial, freq, back;
  for (auto& v : spatial) v = rng.uniform(-128.0, 127.0);
  fdct_8x8(spatial, freq);
  idct_8x8(freq, back);
  for (int i = 0; i < 64; ++i) {
    EXPECT_NEAR(back[static_cast<std::size_t>(i)], spatial[static_cast<std::size_t>(i)], 1e-9);
  }
}

TEST(Dct, ConstantBlockIsPureDc) {
  Block spatial, freq;
  spatial.fill(50.0);
  fdct_8x8(spatial, freq);
  EXPECT_NEAR(freq[0], 50.0 * 8.0, 1e-9);  // orthonormal: DC = 8·mean
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(freq[static_cast<std::size_t>(i)], 0.0, 1e-9);
}

TEST(Dct, EnergyPreserved) {
  sim::Rng rng{2};
  Block spatial, freq;
  double e_spatial = 0.0;
  for (auto& v : spatial) {
    v = rng.normal(0, 30);
    e_spatial += v * v;
  }
  fdct_8x8(spatial, freq);
  double e_freq = 0.0;
  for (double v : freq) e_freq += v * v;
  EXPECT_NEAR(e_freq, e_spatial, 1e-6);
}

TEST(Dct, ZigzagIsAPermutation) {
  std::array<bool, 64> seen{};
  for (int idx : kZigzagOrder) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, 64);
    EXPECT_FALSE(seen[static_cast<std::size_t>(idx)]);
    seen[static_cast<std::size_t>(idx)] = true;
  }
  EXPECT_EQ(kZigzagOrder[0], 0);
  EXPECT_EQ(kZigzagOrder[1], 1);
  EXPECT_EQ(kZigzagOrder[2], 8);
}

TEST(Dct, QuantTablesScaleWithQuality) {
  const auto q10 = luminance_quant_table(10);
  const auto q90 = luminance_quant_table(90);
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(q10[static_cast<std::size_t>(i)], q90[static_cast<std::size_t>(i)]);
    EXPECT_GE(q90[static_cast<std::size_t>(i)], 1);
  }
}

TEST(Color, RgbYcbcrRoundTrip) {
  sim::Rng rng{3};
  for (int i = 0; i < 200; ++i) {
    const auto r = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto g = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const Ycbcr c = rgb_to_ycbcr(r, g, b);
    std::uint8_t r2, g2, b2;
    ycbcr_to_rgb(c.y, c.cb, c.cr, r2, g2, b2);
    EXPECT_NEAR(r, r2, 1.0);
    EXPECT_NEAR(g, g2, 1.0);
    EXPECT_NEAR(b, b2, 1.0);
  }
}

TEST(Huffman, MagnitudeCodingRoundTrip) {
  for (int v = -255; v <= 255; ++v) {
    const int cat = bit_category(v);
    if (v == 0) {
      EXPECT_EQ(cat, 0);
      continue;
    }
    EXPECT_EQ(extend_magnitude(magnitude_bits(v, cat), cat), v);
  }
}

TEST(Huffman, BitIoRoundTripWithStuffing) {
  BitWriter w;
  w.put_bits(0xFF, 8);  // forces a stuffed byte
  w.put_bits(0x5, 3);
  w.put_bits(0x1234, 16);
  w.flush();
  const auto bytes = w.take();
  BitReader r{bytes};
  EXPECT_EQ(r.read_bits(8).value(), 0xFFu);
  EXPECT_EQ(r.read_bits(3).value(), 0x5u);
  EXPECT_EQ(r.read_bits(16).value(), 0x1234u);
}

TEST(Huffman, AnnexKTableEncodesAllCategories) {
  const auto& dc = HuffmanTable::dc_luminance();
  for (std::uint8_t cat = 0; cat <= 11; ++cat) {
    EXPECT_GT(dc.encode(cat).length, 0) << static_cast<int>(cat);
  }
  const auto& ac = HuffmanTable::ac_luminance();
  EXPECT_GT(ac.encode(0x00).length, 0);  // EOB
  EXPECT_GT(ac.encode(0xF0).length, 0);  // ZRL
}

TEST(Huffman, DecodeInvertsEncode) {
  const auto& table = HuffmanTable::ac_luminance();
  BitWriter w;
  const std::uint8_t symbols[] = {0x00, 0x01, 0x11, 0xF0, 0xA5, 0x23};
  for (std::uint8_t s : symbols) {
    const auto code = table.encode(s);
    ASSERT_GT(code.length, 0);
    w.put_bits(code.code, code.length);
  }
  w.flush();
  const auto bytes = w.take();
  BitReader r{bytes};
  for (std::uint8_t s : symbols) {
    const auto decoded = table.decode_symbol(r);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, s);
  }
}

Image test_pattern(int w, int h) {
  Image img = Image::allocate(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      auto* p = img.pixel(x, y);
      p[0] = static_cast<std::uint8_t>((x * 255) / std::max(1, w - 1));
      p[1] = static_cast<std::uint8_t>((y * 255) / std::max(1, h - 1));
      p[2] = static_cast<std::uint8_t>(((x + y) / 2 * 255) / std::max(1, (w + h) / 2));
    }
  }
  return img;
}

TEST(Jpeg, EncodeProducesValidJfifFraming) {
  const Image img = test_pattern(64, 48);
  const auto bytes = encode(img);
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0xFF);
  EXPECT_EQ(bytes[1], 0xD8);  // SOI
  EXPECT_EQ(bytes[bytes.size() - 2], 0xFF);
  EXPECT_EQ(bytes.back(), 0xD9);  // EOI
}

TEST(Jpeg, RoundTripHighQualityIsClose) {
  const Image img = test_pattern(64, 64);
  const auto bytes = encode(img, EncoderConfig{95});
  const auto result = decode(bytes);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.stats.width, 64);
  EXPECT_EQ(result.stats.height, 64);
  EXPECT_EQ(result.stats.components, 3);
  EXPECT_EQ(result.stats.blocks_decoded, 64u * 3u);
  EXPECT_LT(mean_abs_error(img, *result.image), 4.0);
}

TEST(Jpeg, LowerQualityMeansSmallerAndWorse) {
  const Image img = test_pattern(96, 96);
  const auto hq = encode(img, EncoderConfig{90});
  const auto lq = encode(img, EncoderConfig{15});
  EXPECT_LT(lq.size(), hq.size());
  const auto hq_dec = decode(hq);
  const auto lq_dec = decode(lq);
  ASSERT_TRUE(hq_dec.ok());
  ASSERT_TRUE(lq_dec.ok());
  EXPECT_LE(mean_abs_error(img, *hq_dec.image), mean_abs_error(img, *lq_dec.image));
}

TEST(Jpeg, NonMultipleOf8Dimensions) {
  const Image img = test_pattern(50, 30);
  const auto result = decode(encode(img, EncoderConfig{90}));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image->width, 50);
  EXPECT_EQ(result.image->height, 30);
  EXPECT_LT(mean_abs_error(img, *result.image), 6.0);
}

TEST(Jpeg, RejectsGarbage) {
  const std::vector<std::uint8_t> garbage{0x00, 0x11, 0x22};
  EXPECT_FALSE(decode(garbage).ok());
  const std::vector<std::uint8_t> soi_only{0xFF, 0xD8, 0xFF, 0xD9};
  EXPECT_FALSE(decode(soi_only).ok());
}

TEST(Jpeg, RejectsTruncatedStream) {
  const Image img = test_pattern(32, 32);
  auto bytes = encode(img);
  bytes.resize(bytes.size() / 3);
  EXPECT_FALSE(decode(bytes).ok());
}


TEST(Jpeg420, RoundTripCloseToOriginal) {
  const Image img = test_pattern(64, 64);
  EncoderConfig cfg;
  cfg.quality = 90;
  cfg.subsample_420 = true;
  const auto result = decode(encode(img, cfg));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image->width, 64);
  EXPECT_EQ(result.image->height, 64);
  // 4 luma + 2 chroma blocks per 16x16 MCU, 16 MCUs.
  EXPECT_EQ(result.stats.blocks_decoded, 16u * 6u);
  // Chroma averaging blurs colour edges; a smooth gradient stays close.
  EXPECT_LT(mean_abs_error(img, *result.image), 8.0);
}

TEST(Jpeg420, SmallerThan444) {
  const Image img = test_pattern(96, 96);
  EncoderConfig full;
  full.quality = 80;
  EncoderConfig sub = full;
  sub.subsample_420 = true;
  EXPECT_LT(encode(img, sub).size(), encode(img, full).size());
}

TEST(Jpeg420, NonMultipleOf16Dimensions) {
  const Image img = test_pattern(50, 34);
  EncoderConfig cfg;
  cfg.quality = 85;
  cfg.subsample_420 = true;
  const auto result = decode(encode(img, cfg));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.image->width, 50);
  EXPECT_EQ(result.image->height, 34);
  EXPECT_LT(mean_abs_error(img, *result.image), 10.0);
}

TEST(Jpeg420, LumaSharperThanChroma) {
  // A luminance step survives 4:2:0; a pure chroma step blurs. Sanity-check
  // that the decoded luma edge stays steep.
  Image img = Image::allocate(32, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      auto* p = img.pixel(x, y);
      const std::uint8_t v = x < 16 ? 40 : 220;
      p[0] = p[1] = p[2] = v;  // grey step = pure luma
    }
  }
  EncoderConfig cfg;
  cfg.quality = 92;
  cfg.subsample_420 = true;
  const auto result = decode(encode(img, cfg));
  ASSERT_TRUE(result.ok());
  const auto* left = result.image->pixel(8, 16);
  const auto* right = result.image->pixel(24, 16);
  EXPECT_LT(left[0], 80);
  EXPECT_GT(right[0], 180);
}

class JpegQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(JpegQualitySweep, RoundTripErrorBounded) {
  const Image img = test_pattern(40, 40);
  const auto result = decode(encode(img, EncoderConfig{GetParam()}));
  ASSERT_TRUE(result.ok()) << result.error;
  // Even at terrible quality, a smooth gradient stays within gross bounds.
  EXPECT_LT(mean_abs_error(img, *result.image), 40.0);
}

INSTANTIATE_TEST_SUITE_P(Qualities, JpegQualitySweep, ::testing::Values(5, 25, 50, 75, 95));

}  // namespace
}  // namespace iotsim::codecs::jpeg
