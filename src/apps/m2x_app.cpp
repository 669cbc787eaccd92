// A4 — AT&T M2X cloud client: summarises five sensor streams into the M2X
// multi-stream JSON payload, wraps it in an HTTP POST and hands it to the
// network layer.
#include <sstream>

#include "apps/iot_app.h"
#include "codecs/json/json_value.h"
#include "codecs/json/json_writer.h"
#include "codecs/util/base64.h"
#include "dsp/filters.h"

namespace iotsim::apps {

namespace {

class M2xApp final : public IotApp {
 public:
  M2xApp() : IotApp{spec_of(AppId::kA4M2x)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;

    codecs::json::Value payload;
    std::size_t total_samples = 0;

    struct Stream {
      const char* name;
      sensors::SensorId id;
    };
    const Stream streams[] = {{"pressure", sensors::SensorId::kS1Barometer},
                              {"temperature", sensors::SensorId::kS2Temperature},
                              {"acceleration", sensors::SensorId::kS4Accelerometer},
                              {"air_quality", sensors::SensorId::kS5AirQuality},
                              {"light", sensors::SensorId::kS7Light}};

    for (const auto& stream : streams) {
      const auto& samples = in.of(stream.id);
      if (samples.empty()) continue;
      total_samples += samples.size();

      double* values = ws.alloc<double>(samples.size());
      for (std::size_t i = 0; i < samples.size(); ++i) {
        // Multi-channel sensors contribute their magnitude-like first value.
        values[i] = samples.value(i);
      }
      const dsp::Stats stats = dsp::compute_stats({values, samples.size()});

      codecs::json::Value entry;
      entry["count"] = codecs::json::Value{static_cast<int>(samples.size())};
      entry["mean"] = codecs::json::Value{stats.mean};
      entry["stddev"] = codecs::json::Value{stats.stddev};
      entry["min"] = codecs::json::Value{stats.min};
      entry["max"] = codecs::json::Value{stats.max};
      entry["last"] = codecs::json::Value{values[samples.size() - 1]};
      payload["values"][stream.name] = std::move(entry);
    }

    // Raw accelerometer batch rides along base64-coded (M2X bulk upload).
    const auto& accel = in.of(sensors::SensorId::kS4Accelerometer);
    if (!accel.empty()) {
      auto* raw = ws.alloc<std::uint8_t>(accel.size() * 12);
      std::size_t w = 0;
      for (std::size_t i = 0; i < accel.size(); ++i) {
        for (double ch : accel.channels(i)) {
          const auto v = static_cast<std::int32_t>(ch * 1000.0);
          raw[w++] = static_cast<std::uint8_t>(v >> 24);
          raw[w++] = static_cast<std::uint8_t>(v >> 16);
          raw[w++] = static_cast<std::uint8_t>(v >> 8);
          raw[w++] = static_cast<std::uint8_t>(v);
        }
      }
      payload["accel_raw_b64"] =
          codecs::json::Value{codecs::util::base64_encode({raw, w})};
    }

    const std::string body = codecs::json::dump(payload);
    std::ostringstream http;
    http << "POST /v2/devices/hub01/updates HTTP/1.1\r\n"
         << "Host: api-m2x.att.com\r\nContent-Type: application/json\r\n"
         << "X-M2X-KEY: 0123456789abcdef\r\nContent-Length: " << body.size() << "\r\n\r\n"
         << body;
    const std::string request = http.str();

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.net_payload_bytes = request.size();
    out.metric = static_cast<double>(total_samples);
    std::ostringstream os;
    os << "streams=5 samples=" << total_samples << " post_bytes=" << request.size();
    out.summary = os.str();
    return out;
  }
};

}  // namespace

std::unique_ptr<IotApp> make_m2x_app() { return std::make_unique<M2xApp>(); }

}  // namespace iotsim::apps
