// Failure-injection / robustness sweeps: decoders must reject — never
// crash on — corrupted or random input (the hub ingests sensor payloads
// from the wire).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codecs/coap/coap_codec.h"
#include "codecs/fingerprint/minutiae.h"
#include "codecs/jpeg/jpeg_decoder.h"
#include "codecs/jpeg/jpeg_encoder.h"
#include "codecs/json/json_parser.h"
#include "codecs/util/base64.h"
#include "sim/random.h"

namespace iotsim::codecs {
namespace {

std::vector<std::uint8_t> random_bytes(sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

class RandomBytesSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomBytesSweep, DecodersNeverCrashOnGarbage) {
  sim::Rng rng{GetParam()};
  for (int i = 0; i < 50; ++i) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 600));
    const auto bytes = random_bytes(rng, n);
    (void)coap::decode(bytes);
    (void)jpeg::decode(bytes);
    if (bytes.size() == fingerprint::kTemplateBytes) (void)fingerprint::deserialize(bytes);
    const std::string text{bytes.begin(), bytes.end()};
    (void)json::parse(text);
    (void)util::base64_decode(text);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBytesSweep, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BitFlipSweep, CorruptedJpegRejectedOrDecodedNeverCrashes) {
  // Flip bytes all over a valid stream; the decoder must either fail
  // cleanly or produce an image of the declared dimensions.
  auto img = jpeg::Image::allocate(48, 48);
  sim::Rng rng{9};
  for (auto& b : img.rgb) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto valid = jpeg::encode(img, jpeg::EncoderConfig{60});

  for (int trial = 0; trial < 60; ++trial) {
    auto corrupted = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(2, static_cast<std::int64_t>(corrupted.size() - 1)));
    corrupted[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    const auto result = jpeg::decode(corrupted);
    if (result.ok()) {
      EXPECT_EQ(result.image->width, 48);
      EXPECT_EQ(result.image->height, 48);
    } else {
      EXPECT_FALSE(result.error.empty());
    }
  }
}

TEST(BitFlipSweep, CorruptedCoapRejectedOrDecodedNeverCrashes) {
  coap::Message msg;
  msg.message_id = 77;
  msg.token = {1, 2, 3, 4};
  msg.add_uri_path("sensors");
  msg.add_uri_path("light");
  msg.set_payload_text("{\"v\":1}");
  const auto valid = coap::encode(msg);

  sim::Rng rng{10};
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = valid;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corrupted.size() - 1)));
    corrupted[pos] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(0, 7));
    (void)coap::decode(corrupted);  // must not crash; outcome may vary
  }
  SUCCEED();
}

TEST(TruncationSweep, EveryPrefixHandled) {
  coap::Message msg;
  msg.message_id = 3;
  msg.add_uri_path("a");
  msg.set_payload_text("xyz");
  const auto coap_wire = coap::encode(msg);
  for (std::size_t n = 0; n <= coap_wire.size(); ++n) {
    (void)coap::decode(std::span{coap_wire}.first(n));
  }

  auto img = jpeg::Image::allocate(16, 16);
  const auto jpeg_wire = jpeg::encode(img);
  for (std::size_t n = 0; n < jpeg_wire.size(); n += 7) {
    (void)jpeg::decode(std::span{jpeg_wire}.first(n));
  }
  SUCCEED();
}

// Hand-built JFIF streams around the encoder's own tables. The entropy data
// is all zero bits: the first canonical code of every Huffman table is all
// zeros, so any scan of a small image decodes through to colour conversion
// and only the header under test decides the outcome.
struct Segment {
  std::uint8_t marker;
  std::vector<std::uint8_t> body;
};

std::vector<Segment> header_segments(const std::vector<std::uint8_t>& jfif) {
  std::vector<Segment> out;
  for (std::size_t pos = 2; pos + 4 <= jfif.size();) {
    const std::uint8_t marker = jfif[pos + 1];
    if (marker == 0xDA) break;
    const std::size_t len = static_cast<std::size_t>((jfif[pos + 2] << 8) | jfif[pos + 3]);
    const auto first = jfif.begin() + static_cast<std::ptrdiff_t>(pos + 4);
    const auto last = jfif.begin() + static_cast<std::ptrdiff_t>(pos + 2 + len);
    out.push_back({marker, {first, last}});
    pos += 2 + len;
  }
  return out;
}

/// SOS body naming `ids`, each with `tables` (DC id << 4 | AC id).
Segment sos(const std::vector<std::uint8_t>& ids, std::uint8_t tables) {
  Segment seg{0xDA, {static_cast<std::uint8_t>(ids.size())}};
  for (const auto id : ids) {
    seg.body.push_back(id);
    seg.body.push_back(tables);
  }
  seg.body.insert(seg.body.end(), {0, 63, 0});  // Ss, Se, Ah/Al
  return seg;
}

std::vector<std::uint8_t> assemble(const std::vector<Segment>& segments) {
  std::vector<std::uint8_t> out{0xFF, 0xD8};
  for (const auto& seg : segments) {
    const std::size_t len = seg.body.size() + 2;
    out.insert(out.end(), {0xFF, seg.marker, static_cast<std::uint8_t>(len >> 8),
                           static_cast<std::uint8_t>(len & 0xFF)});
    out.insert(out.end(), seg.body.begin(), seg.body.end());
  }
  out.insert(out.end(), 1024, 0x00);  // zero-bit entropy data
  out.insert(out.end(), {0xFF, 0xD9});
  return out;
}

std::vector<Segment> small_image_header() {
  return header_segments(jpeg::encode(jpeg::Image::allocate(16, 16)));
}

TEST(MalformedJpeg, ZeroBitScanDecodesWhenHeaderIsWellFormed) {
  // The control for the cases below: the same construction decodes.
  auto segments = small_image_header();
  segments.push_back(sos({1, 2, 3}, 0x00));
  const auto result = jpeg::decode(assemble(segments));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.stats.components, 3);
}

TEST(MalformedJpeg, SecondSof0RejectedBeforeScan) {
  // A second SOF0 would grow the component list past the three a colour
  // scan can hold; 3+1 and 3+3 components, with an SOS naming them all.
  const auto header = small_image_header();
  const auto sof0 = std::find_if(header.begin(), header.end(),
                                 [](const Segment& seg) { return seg.marker == 0xC0; });
  ASSERT_NE(sof0, header.end());
  Segment grey = *sof0;
  grey.body.resize(6 + 3);
  grey.body[5] = 1;
  grey.body[6] = 4;  // component id
  Segment colour = *sof0;
  for (std::size_t c = 0; c < 3; ++c) colour.body[6 + c * 3] = static_cast<std::uint8_t>(4 + c);

  auto decode_with = [&header](const Segment& second, const std::vector<std::uint8_t>& ids) {
    auto segments = header;
    segments.push_back(second);
    segments.push_back(sos(ids, 0x00));
    return jpeg::decode(assemble(segments));
  };
  const auto three_plus_one = decode_with(grey, {1, 2, 3, 4});
  EXPECT_FALSE(three_plus_one.ok());
  EXPECT_FALSE(three_plus_one.error.empty());
  const auto three_plus_three = decode_with(colour, {1, 2, 3, 4, 5, 6});
  EXPECT_FALSE(three_plus_three.ok());
  EXPECT_FALSE(three_plus_three.error.empty());
}

TEST(MalformedJpeg, DcCategoryBeyondElevenRejected) {
  // A baseline 8-bit DC difference has at most 11 bits. A DHT that maps DC
  // codes to larger categories is corrupt, up to ones wider than any read.
  for (const std::uint8_t category : {12, 31, 32, 255}) {
    auto segments = small_image_header();
    for (auto& seg : segments) {
      if (seg.marker != 0xC4 || (seg.body[0] >> 4) != 0) continue;  // DC tables only
      std::fill(seg.body.begin() + 1 + 16, seg.body.end(), category);
    }
    segments.push_back(sos({1, 2, 3}, 0x00));
    const auto result = jpeg::decode(assemble(segments));
    EXPECT_FALSE(result.ok()) << "category " << int{category};
    EXPECT_FALSE(result.error.empty());
  }
}

TEST(JsonFuzz, StructuredGarbageNeverCrashes) {
  sim::Rng rng{11};
  const char alphabet[] = "{}[],:\"\\0123456789.eE+-truefalsenull \n\t";
  for (int trial = 0; trial < 400; ++trial) {
    std::string s;
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 120));
    for (std::size_t i = 0; i < n; ++i) {
      s += alphabet[rng.uniform_int(0, sizeof(alphabet) - 2)];
    }
    const auto r = json::parse(s);
    if (!r.ok()) {
      EXPECT_LE(r.error->offset, s.size());
    }
  }
}

}  // namespace
}  // namespace iotsim::codecs
