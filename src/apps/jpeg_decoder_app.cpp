// A9 — JPEG decoder: runs the real baseline JFIF decoder (Huffman →
// dequantise → IDCT → colour convert) on the camera frame and reports a
// simple scene statistic from the decoded pixels.
#include <sstream>

#include "apps/iot_app.h"
#include "codecs/jpeg/jpeg_decoder.h"

namespace iotsim::apps {

namespace {

class JpegDecoderApp final : public IotApp {
 public:
  JpegDecoderApp() : IotApp{spec_of(AppId::kA9JpegDecoder)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;
    const auto& frames = in.of(sensors::SensorId::kS10Camera);
    if (frames.empty() || frames.blob(frames.size() - 1).empty()) {
      out.summary = "no frame";
      return out;
    }
    const auto& blob = frames.blob(frames.size() - 1);

    // Stage the compressed stream in a profiled buffer (the app's input
    // buffer), then decode.
    auto* staged = ws.alloc<std::uint8_t>(blob.size());
    std::copy(blob.begin(), blob.end(), staged);
    const auto result = codecs::jpeg::decode({staged, blob.size()});
    if (!result.ok()) {
      out.event = true;
      out.summary = "decode error: " + result.error;
      return out;
    }

    // Scene statistic: mean luminance of the decoded image.
    const auto& img = *result.image;
    double luma = 0.0;
    for (std::size_t i = 0; i + 2 < img.rgb.size(); i += 3) {
      luma += 0.299 * img.rgb[i] + 0.587 * img.rgb[i + 1] + 0.114 * img.rgb[i + 2];
    }
    luma /= static_cast<double>(img.rgb.size() / 3);

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.metric = luma;
    std::ostringstream os;
    os << "decoded " << result.stats.width << "x" << result.stats.height << " blocks="
       << result.stats.blocks_decoded << " mean_luma=" << luma;
    out.summary = os.str();
    return out;
  }
};

}  // namespace

std::unique_ptr<IotApp> make_jpeg_decoder_app() { return std::make_unique<JpegDecoderApp>(); }

}  // namespace iotsim::apps
