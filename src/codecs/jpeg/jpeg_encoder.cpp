#include "codecs/jpeg/jpeg_encoder.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

#include "codecs/jpeg/huffman.h"
#include "codecs/jpeg/idct.h"

namespace iotsim::codecs::jpeg {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

void put_marker(std::vector<std::uint8_t>& out, std::uint8_t marker) {
  out.push_back(0xFF);
  out.push_back(marker);
}

void write_app0(std::vector<std::uint8_t>& out) {
  put_marker(out, 0xE0);
  put_u16(out, 16);
  const char id[] = "JFIF";
  out.insert(out.end(), id, id + 5);
  out.push_back(1);  // version 1.1
  out.push_back(1);
  out.push_back(0);  // aspect-ratio units
  put_u16(out, 1);
  put_u16(out, 1);
  out.push_back(0);  // no thumbnail
  out.push_back(0);
}

void write_dqt(std::vector<std::uint8_t>& out, int id, const QuantTable& table) {
  put_marker(out, 0xDB);
  put_u16(out, 67);
  out.push_back(static_cast<std::uint8_t>(id));  // 8-bit precision, table id
  for (int k = 0; k < 64; ++k) {
    out.push_back(static_cast<std::uint8_t>(
        table[static_cast<std::size_t>(kZigzagOrder[static_cast<std::size_t>(k)])]));
  }
}

void write_sof0(std::vector<std::uint8_t>& out, int width, int height, bool subsample) {
  put_marker(out, 0xC0);
  put_u16(out, 17);
  out.push_back(8);  // sample precision
  put_u16(out, static_cast<std::uint16_t>(height));
  put_u16(out, static_cast<std::uint16_t>(width));
  out.push_back(3);  // components
  // id, sampling factors, quant table id. 4:2:0 doubles luma's factors.
  const std::uint8_t luma_sampling = subsample ? 0x22 : 0x11;
  const std::uint8_t comps[3][3] = {{1, luma_sampling, 0}, {2, 0x11, 1}, {3, 0x11, 1}};
  for (const auto& c : comps) {
    out.push_back(c[0]);
    out.push_back(c[1]);
    out.push_back(c[2]);
  }
}

void write_dht(std::vector<std::uint8_t>& out, int cls, int id, const HuffmanTable& table) {
  put_marker(out, 0xC4);
  const auto& bits = table.spec_bits();
  const auto& vals = table.spec_vals();
  put_u16(out, static_cast<std::uint16_t>(2 + 1 + 16 + vals.size()));
  out.push_back(static_cast<std::uint8_t>((cls << 4) | id));
  out.insert(out.end(), bits.begin(), bits.end());
  out.insert(out.end(), vals.begin(), vals.end());
}

void write_sos(std::vector<std::uint8_t>& out) {
  put_marker(out, 0xDA);
  put_u16(out, 12);
  out.push_back(3);
  const std::uint8_t comps[3][2] = {{1, 0x00}, {2, 0x11}, {3, 0x11}};
  for (const auto& c : comps) {
    out.push_back(c[0]);
    out.push_back(c[1]);
  }
  out.push_back(0);   // spectral start
  out.push_back(63);  // spectral end
  out.push_back(0);   // successive approximation
}

/// Quantiser, Huffman tables and DC predictor of one component's blocks.
struct ComponentCoder {
  const Quantizer& quant;
  const HuffmanTable& dc;
  const HuffmanTable& ac;
  int dc_pred = 0;
};

/// Appends a Huffman code followed by `category` magnitude bits of v.
void put_code(BitWriter& writer, HuffmanTable::CodeWord code, int v, int category) {
  assert(code.length > 0);
  writer.put_bits((std::uint32_t{code.code} << category) | magnitude_bits(v, category),
                  code.length + category);
}

/// FDCT + quantise + entropy-code one 8×8 block of level-shifted samples.
void encode_block(const Block& shifted, ComponentCoder& comp, BitWriter& writer) {
  Block freq;
  fdct_8x8(shifted, freq);
  std::array<int, 64> coeffs;  // natural order
  const std::uint64_t nonzero = comp.quant.quantize(freq, coeffs);

  // DC difference.
  const int diff = coeffs[0] - comp.dc_pred;
  comp.dc_pred = coeffs[0];
  const int dc_cat = bit_category(diff);
  put_code(writer, comp.dc.encode(static_cast<std::uint8_t>(dc_cat)), diff, dc_cat);

  // AC run-length coding, visiting only the nonzero coefficients.
  std::uint64_t ac = nonzero & ~std::uint64_t{1};
  int last = 0;
  while (ac != 0) {
    const int k = std::countr_zero(ac);
    ac &= ac - 1;
    int run = k - last - 1;
    for (; run >= 16; run -= 16) put_code(writer, comp.ac.encode(0xF0), 0, 0);  // ZRL
    const int v = coeffs[static_cast<std::size_t>(kZigzagOrder[static_cast<std::size_t>(k)])];
    const int cat = bit_category(v);
    put_code(writer, comp.ac.encode(static_cast<std::uint8_t>((run << 4) | cat)), v, cat);
    last = k;
  }
  if (last < 63) put_code(writer, comp.ac.encode(0x00), 0, 0);  // EOB
}

/// Y, Cb and Cr minus `offset` of the 8×8 pixels at (x0, y0); pixels past
/// the right and bottom edges replicate the border.
void load_ycbcr(const Image& image, int x0, int y0, double offset, Block& y, Block& cb, Block& cr) {
  int offsets[8];  // byte offset of each column's pixel within a row
  for (int col = 0; col < 8; ++col) offsets[col] = std::min(x0 + col, image.width - 1) * 3;
  std::uint8_t rgb[3][64];
  for (int row = 0; row < 8; ++row) {
    const std::uint8_t* line = image.pixel(0, std::min(y0 + row, image.height - 1));
    for (int col = 0; col < 8; ++col) {
      const std::uint8_t* p = line + offsets[col];
      for (int c = 0; c < 3; ++c) rgb[c][row * 8 + col] = p[c];
    }
  }
  for (std::size_t i = 0; i < 64; ++i) {
    const Ycbcr c = rgb_to_ycbcr(rgb[0][i], rgb[1][i], rgb[2][i]);
    y[i] = c.y - offset;
    cb[i] = c.cb - offset;
    cr[i] = c.cr - offset;
  }
}

/// Entropy data for 4:4:4 — one block per component per 8×8 MCU.
void encode_scan_444(const Image& image, ComponentCoder (&comps)[3], BitWriter& writer) {
  const int mcu_cols = (image.width + 7) / 8;
  const int mcu_rows = (image.height + 7) / 8;
  Block y, cb, cr;
  for (int my = 0; my < mcu_rows; ++my) {
    for (int mx = 0; mx < mcu_cols; ++mx) {
      load_ycbcr(image, mx * 8, my * 8, 128.0, y, cb, cr);
      encode_block(y, comps[0], writer);
      encode_block(cb, comps[1], writer);
      encode_block(cr, comps[2], writer);
    }
  }
}

/// Entropy data for 4:2:0 — 16×16 MCUs: 4 luma blocks then one 2×2-averaged
/// block each of Cb and Cr.
void encode_scan_420(const Image& image, ComponentCoder (&comps)[3], BitWriter& writer) {
  const int mcu_cols = (image.width + 15) / 16;
  const int mcu_rows = (image.height + 15) / 16;
  Block luma[4], cb[4], cr[4];  // the MCU's 8×8 quarters in raster order
  Block cb_avg, cr_avg;
  for (int my = 0; my < mcu_rows; ++my) {
    for (int mx = 0; mx < mcu_cols; ++mx) {
      for (int q = 0; q < 4; ++q) {
        load_ycbcr(image, mx * 16 + (q % 2) * 8, my * 16 + (q / 2) * 8, 0.0, luma[q], cb[q], cr[q]);
      }
      // Chroma: 2×2 box average across the 16×16 region.
      for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
          double sum_cb = 0.0, sum_cr = 0.0;
          for (int dy = 0; dy < 2; ++dy) {
            for (int dx = 0; dx < 2; ++dx) {
              const int sx = x * 2 + dx, sy = y * 2 + dy;
              const auto q = static_cast<std::size_t>((sy / 8) * 2 + sx / 8);
              const auto i = static_cast<std::size_t>((sy % 8) * 8 + sx % 8);
              sum_cb += cb[q][i];
              sum_cr += cr[q][i];
            }
          }
          cb_avg[static_cast<std::size_t>(y * 8 + x)] = sum_cb / 4.0 - 128.0;
          cr_avg[static_cast<std::size_t>(y * 8 + x)] = sum_cr / 4.0 - 128.0;
        }
      }
      for (Block& block : luma) {
        for (double& v : block) v -= 128.0;
        encode_block(block, comps[0], writer);
      }
      encode_block(cb_avg, comps[1], writer);
      encode_block(cr_avg, comps[2], writer);
    }
  }
}

}  // namespace

std::vector<std::uint8_t> encode(const Image& image, const EncoderConfig& cfg) {
  assert(image.valid());
  const QuantTable luma_q = luminance_quant_table(cfg.quality);
  const QuantTable chroma_q = chrominance_quant_table(cfg.quality);

  std::vector<std::uint8_t> out;
  put_marker(out, 0xD8);  // SOI
  write_app0(out);
  write_dqt(out, 0, luma_q);
  write_dqt(out, 1, chroma_q);
  write_sof0(out, image.width, image.height, cfg.subsample_420);
  write_dht(out, 0, 0, HuffmanTable::dc_luminance());
  write_dht(out, 1, 0, HuffmanTable::ac_luminance());
  write_dht(out, 0, 1, HuffmanTable::dc_chrominance());
  write_dht(out, 1, 1, HuffmanTable::ac_chrominance());
  write_sos(out);

  const Quantizer luma{luma_q}, chroma{chroma_q};
  ComponentCoder comps[3] = {
      {luma, HuffmanTable::dc_luminance(), HuffmanTable::ac_luminance(), 0},
      {chroma, HuffmanTable::dc_chrominance(), HuffmanTable::ac_chrominance(), 0},
      {chroma, HuffmanTable::dc_chrominance(), HuffmanTable::ac_chrominance(), 0}};
  BitWriter writer{std::move(out)};  // entropy data follows the headers
  if (cfg.subsample_420) {
    encode_scan_420(image, comps, writer);
  } else {
    encode_scan_444(image, comps, writer);
  }
  writer.flush();
  out = writer.take();

  put_marker(out, 0xD9);  // EOI
  // A camera sample keeps this buffer for the rest of its window: drop the
  // growth slack (~40% of a 320x240 frame).
  out.shrink_to_fit();
  return out;
}

}  // namespace iotsim::codecs::jpeg
