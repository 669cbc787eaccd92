// A3 — arduinoJSON: formats the barometer/temperature readings into a JSON
// document (string-to-double conversions, memory allocation — the tasks
// §IV-F names), then parses it back and verifies the round trip.
#include <sstream>

#include "apps/iot_app.h"
#include "codecs/json/json_parser.h"
#include "codecs/json/json_value.h"
#include "codecs/json/json_writer.h"

namespace iotsim::apps {

namespace {

class ArduinoJsonApp final : public IotApp {
 public:
  ArduinoJsonApp() : IotApp{spec_of(AppId::kA3ArduinoJson)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;

    codecs::json::Value doc;
    doc["device"] = codecs::json::Value{"iot-hub"};
    doc["seq"] = codecs::json::Value{static_cast<int>(seq_++)};

    auto add_series = [&](const char* key, sensors::SensorId id) {
      codecs::json::Value series;
      const SampleColumn& readings = in.of(id);
      for (std::size_t i = 0; i < readings.size(); ++i) {
        codecs::json::Value point;
        point["t"] = codecs::json::Value{readings.time(i).to_seconds()};
        point["v"] = codecs::json::Value{readings.value(i)};
        series.push_back(std::move(point));
      }
      doc[key] = std::move(series);
    };
    add_series("pressure_hpa", sensors::SensorId::kS1Barometer);
    add_series("temperature_c", sensors::SensorId::kS2Temperature);

    const std::string text = codecs::json::dump(doc);
    // Copy the serialised document into a profiled buffer (the ArduinoJson
    // static pool the library is known for).
    char* pool = ws.alloc<char>(text.size());
    std::copy(text.begin(), text.end(), pool);

    const auto parsed = codecs::json::parse(std::string_view{pool, text.size()});
    const bool round_trip_ok = parsed.ok() && *parsed.value == doc;

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.metric = static_cast<double>(text.size());
    out.event = !round_trip_ok;
    std::ostringstream os;
    os << "json_bytes=" << text.size() << " round_trip=" << (round_trip_ok ? "ok" : "FAIL");
    out.summary = os.str();
    return out;
  }

 private:
  std::uint32_t seq_ = 0;
};

}  // namespace

std::unique_ptr<IotApp> make_arduino_json_app() { return std::make_unique<ArduinoJsonApp>(); }

}  // namespace iotsim::apps
