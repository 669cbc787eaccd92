// A6 — Dropbox manager: treats the window's sensor log as a file delta,
// chunks it with a rolling checksum (rsync-style content-defined
// boundaries), CRCs each chunk, and builds the sync manifest to upload.
#include <sstream>

#include "apps/iot_app.h"
#include "codecs/json/json_value.h"
#include "codecs/json/json_writer.h"
#include "codecs/util/checksum.h"

namespace iotsim::apps {

namespace {

class DropboxApp final : public IotApp {
 public:
  DropboxApp() : IotApp{spec_of(AppId::kA6Dropbox)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;

    // Serialise the window's readings into the "file" being synced.
    const auto& sound = in.of(sensors::SensorId::kS8Sound);
    const auto& distance = in.of(sensors::SensorId::kS9Distance);
    const std::size_t file_bytes = (sound.size() + distance.size()) * 8;
    if (file_bytes == 0) {
      out.summary = "empty file";
      return out;
    }
    auto* file = ws.alloc<std::uint8_t>(file_bytes);
    std::size_t w = 0;
    auto append = [&](double v) {
      const auto bits = static_cast<std::int64_t>(v * 1e6);
      for (int shift = 56; shift >= 0; shift -= 8) {
        file[w++] = static_cast<std::uint8_t>((bits >> shift) & 0xFF);
      }
    };
    for (std::size_t i = 0; i < sound.size(); ++i) append(sound.value(i));
    for (std::size_t i = 0; i < distance.size(); ++i) append(distance.value(i));

    // Content-defined chunking: boundary when the rolling checksum's low
    // bits are zero (mask picks the expected chunk size).
    constexpr std::size_t kWindow = 48;
    constexpr std::uint32_t kBoundaryMask = 0x01FF;  // ~512 B expected chunks
    codecs::util::RollingAdler32 roll{kWindow};
    std::vector<std::pair<std::size_t, std::uint32_t>> chunks;  // (size, crc)
    std::size_t chunk_start = 0;
    if (file_bytes >= kWindow) {
      roll.init({file, kWindow});
      for (std::size_t i = kWindow; i < file_bytes; ++i) {
        roll.roll(file[i - kWindow], file[i]);
        const bool boundary = (roll.value() & kBoundaryMask) == 0;
        const bool too_big = i - chunk_start >= 4096;
        if (boundary || too_big) {
          chunks.emplace_back(i - chunk_start,
                              codecs::util::crc32({file + chunk_start, i - chunk_start}));
          chunk_start = i;
        }
      }
    }
    chunks.emplace_back(file_bytes - chunk_start,
                        codecs::util::crc32({file + chunk_start, file_bytes - chunk_start}));

    // Sync manifest: only chunks whose CRC changed since last window upload.
    codecs::json::Value manifest;
    manifest["file"] = codecs::json::Value{"sensor_log.bin"};
    manifest["rev"] = codecs::json::Value{static_cast<int>(rev_++)};
    std::size_t upload_bytes = 0;
    codecs::json::Value chunk_list;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const bool changed = i >= last_crcs_.size() || last_crcs_[i] != chunks[i].second;
      if (changed) upload_bytes += chunks[i].first;
      codecs::json::Value c;
      c["size"] = codecs::json::Value{static_cast<int>(chunks[i].first)};
      c["crc32"] = codecs::json::Value{static_cast<double>(chunks[i].second)};
      c["upload"] = codecs::json::Value{changed};
      chunk_list.push_back(std::move(c));
    }
    manifest["chunks"] = std::move(chunk_list);
    last_crcs_.clear();
    for (const auto& [size, crc] : chunks) last_crcs_.push_back(crc);

    const std::string manifest_text = codecs::json::dump(manifest);
    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.net_payload_bytes = manifest_text.size() + upload_bytes;
    out.metric = static_cast<double>(chunks.size());
    std::ostringstream os;
    os << "chunks=" << chunks.size() << " upload=" << upload_bytes
       << " manifest=" << manifest_text.size();
    out.summary = os.str();
    return out;
  }

 private:
  std::uint32_t rev_ = 0;
  std::vector<std::uint32_t> last_crcs_;
};

}  // namespace

std::unique_ptr<IotApp> make_dropbox_app() { return std::make_unique<DropboxApp>(); }

}  // namespace iotsim::apps
