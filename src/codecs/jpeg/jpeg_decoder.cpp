#include "codecs/jpeg/jpeg_decoder.h"

#include <algorithm>
#include <array>
#include <vector>

#include "codecs/jpeg/huffman.h"
#include "codecs/jpeg/idct.h"

namespace iotsim::codecs::jpeg {

namespace {

struct Component {
  int id = 0;
  int h = 1;  // horizontal sampling factor
  int v = 1;  // vertical sampling factor
  int quant_id = 0;
  int dc_table = 0;
  int ac_table = 0;
  int dc_pred = 0;
  std::vector<double> plane;  // one MCU row at the component's resolution
  std::size_t stride = 0;
  int shift_x = 0;  // log2 of max_h / h (sampling factors are 1 or 2)
  int shift_y = 0;  // log2 of max_v / v
};

struct DecoderState {
  std::array<std::optional<QuantTable>, 4> quant;
  std::array<std::optional<HuffmanTable>, 4> dc_tables;
  std::array<std::optional<HuffmanTable>, 4> ac_tables;
  std::vector<Component> components;
  int width = 0;
  int height = 0;
  int max_h = 1;
  int max_v = 1;
};

DecodeResult fail(std::string message) { return DecodeResult{std::nullopt, {}, std::move(message)}; }

/// Largest DC difference category of baseline 8-bit JPEG; a larger one
/// is corrupt (and would overrun read_bits and extend_magnitude).
constexpr int kMaxDcCategory = 11;

/// Decodes one 8×8 block's coefficients into `freq` (natural order,
/// dequantised). Returns false on malformed entropy data.
bool decode_block(BitReader& reader, const HuffmanTable& dc, const HuffmanTable& ac,
                  const QuantTable& quant, int& dc_pred, Block& freq) {
  freq.fill(0.0);

  const auto dc_cat = dc.decode_symbol(reader);
  if (!dc_cat || *dc_cat > kMaxDcCategory) return false;
  int diff = 0;
  if (*dc_cat > 0) {
    const auto bits = reader.read_bits(*dc_cat);
    if (!bits) return false;
    diff = extend_magnitude(*bits, *dc_cat);
  }
  dc_pred += diff;
  freq[0] = static_cast<double>(dc_pred) * quant[0];

  int k = 1;
  while (k < 64) {
    const auto symbol = ac.decode_symbol(reader);
    if (!symbol) return false;
    if (*symbol == 0x00) break;  // EOB
    const int run = *symbol >> 4;
    const int cat = *symbol & 0x0F;
    if (*symbol == 0xF0) {  // ZRL
      k += 16;
      continue;
    }
    k += run;
    if (k >= 64 || cat == 0) return false;
    const auto bits = reader.read_bits(cat);
    if (!bits) return false;
    const int value = extend_magnitude(*bits, cat);
    const int natural = kZigzagOrder[static_cast<std::size_t>(k)];
    freq[static_cast<std::size_t>(natural)] =
        static_cast<double>(value) * quant[static_cast<std::size_t>(natural)];
    ++k;
  }
  return true;
}

DecodeResult run_scan(DecoderState& st, std::span<const std::uint8_t> entropy,
                      DecodeStats stats) {
  BitReader reader{entropy};
  const int mcu_w = 8 * st.max_h;
  const int mcu_h = 8 * st.max_v;
  const int mcu_cols = (st.width + mcu_w - 1) / mcu_w;
  const int mcu_rows = (st.height + mcu_h - 1) / mcu_h;

  // Component planes hold one MCU row, padded to the MCU grid; each row is
  // colour-converted as soon as it is decoded.
  for (Component& comp : st.components) {
    comp.stride = static_cast<std::size_t>(mcu_cols) * 8 * static_cast<std::size_t>(comp.h);
    comp.plane.assign(comp.stride * static_cast<std::size_t>(8 * comp.v), 0.0);
    comp.shift_x = comp.h == st.max_h ? 0 : 1;
    comp.shift_y = comp.v == st.max_v ? 0 : 1;
  }
  Image img = Image::allocate(st.width, st.height);
  const auto width = static_cast<std::size_t>(st.width);

  Block freq, spatial;
  for (int my = 0; my < mcu_rows; ++my) {
    for (int mx = 0; mx < mcu_cols; ++mx) {
      for (Component& comp : st.components) {
        const auto& quant = st.quant[static_cast<std::size_t>(comp.quant_id)];
        const auto& dc = st.dc_tables[static_cast<std::size_t>(comp.dc_table)];
        const auto& ac = st.ac_tables[static_cast<std::size_t>(comp.ac_table)];
        if (!quant || !dc || !ac) return fail("missing table for scan");
        for (int by = 0; by < comp.v; ++by) {
          for (int bx = 0; bx < comp.h; ++bx) {
            if (!decode_block(reader, *dc, *ac, *quant, comp.dc_pred, freq)) {
              return fail("corrupt entropy data");
            }
            idct_8x8(freq, spatial);
            ++stats.blocks_decoded;
            double* out = comp.plane.data() + static_cast<std::size_t>(by * 8) * comp.stride +
                          static_cast<std::size_t>(mx * comp.h + bx) * 8;
            for (std::size_t y = 0; y < 8; ++y, out += comp.stride) {
              for (std::size_t x = 0; x < 8; ++x) out[x] = spatial[y * 8 + x] + 128.0;
            }
          }
        }
      }
    }

    // Colour conversion with nearest-neighbour chroma upsampling.
    const int y_end = std::min((my + 1) * mcu_h, st.height);
    for (int y = my * mcu_h; y < y_end; ++y) {
      const int row = y - my * mcu_h;
      auto plane_row = [row](const Component& comp) {
        return comp.plane.data() + static_cast<std::size_t>(row >> comp.shift_y) * comp.stride;
      };
      std::uint8_t* rgb = img.pixel(0, y);
      if (st.components.size() == 3) {
        const Component& cy = st.components[0];
        const Component& cb = st.components[1];
        const Component& cr = st.components[2];
        const double* py = plane_row(cy);
        const double* pb = plane_row(cb);
        const double* pr = plane_row(cr);
        if ((cy.shift_x | cb.shift_x | cr.shift_x) == 0) {  // 4:4:4
          for (std::size_t x = 0; x < width; ++x, rgb += 3) {
            ycbcr_to_rgb(py[x], pb[x], pr[x], rgb[0], rgb[1], rgb[2]);
          }
        } else {
          for (std::size_t x = 0; x < width; ++x, rgb += 3) {
            ycbcr_to_rgb(py[x >> cy.shift_x], pb[x >> cb.shift_x], pr[x >> cr.shift_x], rgb[0],
                         rgb[1], rgb[2]);
          }
        }
      } else {
        const double* p = plane_row(st.components[0]);  // a lone component is never subsampled
        for (std::size_t x = 0; x < width; ++x, rgb += 3) {
          rgb[0] = rgb[1] = rgb[2] = round_to_u8(p[x]);
        }
      }
    }
  }
  stats.entropy_bytes = reader.consumed();

  stats.width = st.width;
  stats.height = st.height;
  stats.components = static_cast<int>(st.components.size());
  return DecodeResult{std::move(img), stats, {}};
}

}  // namespace

DecodeResult decode(std::span<const std::uint8_t> jfif) {
  if (jfif.size() < 4 || jfif[0] != 0xFF || jfif[1] != 0xD8) return fail("missing SOI");

  DecoderState st;
  std::size_t pos = 2;
  DecodeStats stats;

  auto read_u16 = [&](std::size_t at) -> int {
    return (jfif[at] << 8) | jfif[at + 1];
  };

  while (pos + 4 <= jfif.size()) {
    if (jfif[pos] != 0xFF) return fail("expected marker");
    const std::uint8_t marker = jfif[pos + 1];
    pos += 2;
    if (marker == 0xD9) return fail("EOI before SOS");
    const std::size_t seg_len = static_cast<std::size_t>(read_u16(pos));
    if (seg_len < 2 || pos + seg_len > jfif.size()) return fail("truncated segment");
    const std::size_t body = pos + 2;
    const std::size_t body_len = seg_len - 2;

    switch (marker) {
      case 0xDB: {  // DQT (possibly several tables per segment)
        std::size_t p = body;
        while (p < body + body_len) {
          const int precision = jfif[p] >> 4;
          const int id = jfif[p] & 0x0F;
          ++p;
          if (precision != 0) return fail("16-bit quant tables unsupported");
          if (id > 3 || p + 64 > body + body_len) return fail("bad DQT");
          QuantTable table{};
          for (int k = 0; k < 64; ++k) {
            table[static_cast<std::size_t>(kZigzagOrder[static_cast<std::size_t>(k)])] =
                jfif[p + static_cast<std::size_t>(k)];
          }
          st.quant[static_cast<std::size_t>(id)] = table;
          p += 64;
        }
        break;
      }
      case 0xC4: {  // DHT
        std::size_t p = body;
        while (p < body + body_len) {
          const int cls = jfif[p] >> 4;
          const int id = jfif[p] & 0x0F;
          ++p;
          if (id > 3 || p + 16 > body + body_len) return fail("bad DHT");
          std::size_t count = 0;
          for (int i = 0; i < 16; ++i) count += jfif[p + static_cast<std::size_t>(i)];
          if (p + 16 + count > body + body_len) return fail("bad DHT values");
          HuffmanTable table{jfif.subspan(p, 16), jfif.subspan(p + 16, count)};
          if (cls == 0) {
            st.dc_tables[static_cast<std::size_t>(id)] = std::move(table);
          } else {
            st.ac_tables[static_cast<std::size_t>(id)] = std::move(table);
          }
          p += 16 + count;
        }
        break;
      }
      case 0xC0: {  // SOF0
        if (!st.components.empty()) return fail("duplicate SOF0");
        if (body_len < 6) return fail("bad SOF0");
        if (jfif[body] != 8) return fail("only 8-bit samples supported");
        st.height = read_u16(body + 1);
        st.width = read_u16(body + 3);
        if (st.width <= 0 || st.height <= 0) return fail("bad dimensions");
        const int ncomp = jfif[body + 5];
        if (ncomp != 1 && ncomp != 3) return fail("unsupported component count");
        if (body_len < 6 + static_cast<std::size_t>(ncomp) * 3) return fail("bad SOF0 comps");
        for (int c = 0; c < ncomp; ++c) {
          const std::size_t p = body + 6 + static_cast<std::size_t>(c) * 3;
          Component comp;
          comp.id = jfif[p];
          comp.h = jfif[p + 1] >> 4;
          comp.v = jfif[p + 1] & 0x0F;
          if (comp.h < 1 || comp.h > 2 || comp.v < 1 || comp.v > 2) {
            return fail("sampling factors beyond 2x2 unsupported");
          }
          comp.quant_id = jfif[p + 2];
          if (comp.quant_id > 3) return fail("bad quant id");
          st.max_h = std::max(st.max_h, comp.h);
          st.max_v = std::max(st.max_v, comp.v);
          st.components.push_back(std::move(comp));
        }
        break;
      }
      case 0xC2:
        return fail("progressive JPEG unsupported");
      case 0xDA: {  // SOS
        if (st.components.empty() || st.width <= 0 || st.height <= 0) {
          return fail("SOS before SOF0");
        }
        if (body_len < 1) return fail("bad SOS");
        const int ncomp = jfif[body];
        if (ncomp != static_cast<int>(st.components.size())) return fail("bad SOS comps");
        if (body_len < 1 + static_cast<std::size_t>(ncomp) * 2) return fail("bad SOS header");
        for (int c = 0; c < ncomp; ++c) {
          const std::size_t p = body + 1 + static_cast<std::size_t>(c) * 2;
          const int id = jfif[p];
          auto it = std::find_if(st.components.begin(), st.components.end(),
                                 [id](const Component& comp) { return comp.id == id; });
          if (it == st.components.end()) return fail("SOS references unknown component");
          it->dc_table = jfif[p + 1] >> 4;
          it->ac_table = jfif[p + 1] & 0x0F;
          if (it->dc_table > 3 || it->ac_table > 3) return fail("bad SOS table ids");
        }
        return run_scan(st, jfif.subspan(body + body_len), stats);
      }
      default:
        break;  // skip APPn/COM/etc.
    }
    pos += seg_len;
  }
  return fail("no SOS segment found");
}

}  // namespace iotsim::codecs::jpeg
