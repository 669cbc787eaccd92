// A5 — Blynk: frames sensor values as virtual-pin writes using Blynk's
// binary protocol (5-byte header: command, message id, body length) and
// ships the latest camera frame to the smartphone.
#include <sstream>

#include "apps/iot_app.h"

namespace iotsim::apps {

namespace {

// Blynk protocol command codes (subset).
enum BlynkCommand : std::uint8_t {
  kBlynkHardware = 20,  // virtual pin write
};

class BlynkApp final : public IotApp {
 public:
  BlynkApp() : IotApp{spec_of(AppId::kA5Blynk)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;

    // Message buffer: generous bound = header per message + formatted body.
    auto* buffer = ws.alloc<std::uint8_t>(26 * 1024);
    std::size_t used = 0;
    std::size_t messages = 0;

    auto frame_message = [&](std::uint8_t cmd, const std::string& body) {
      if (used + 5 + body.size() > 26 * 1024) return;
      buffer[used++] = cmd;
      buffer[used++] = static_cast<std::uint8_t>(next_msg_id_ >> 8);
      buffer[used++] = static_cast<std::uint8_t>(next_msg_id_ & 0xFF);
      ++next_msg_id_;
      buffer[used++] = static_cast<std::uint8_t>(body.size() >> 8);
      buffer[used++] = static_cast<std::uint8_t>(body.size() & 0xFF);
      std::copy(body.begin(), body.end(), buffer + used);
      used += body.size();
      ++messages;
    };

    struct Pin {
      int vpin;
      sensors::SensorId id;
    };
    const Pin pins[] = {{0, sensors::SensorId::kS1Barometer},
                        {1, sensors::SensorId::kS2Temperature},
                        {2, sensors::SensorId::kS4Accelerometer},
                        {3, sensors::SensorId::kS5AirQuality}};

    for (const auto& pin : pins) {
      const auto& samples = in.of(pin.id);
      if (samples.empty()) continue;
      // Blynk sends "vw <pin> <value>" bodies, NUL-separated.
      std::ostringstream body;
      body << "vw" << '\0' << pin.vpin << '\0' << samples.value(samples.size() - 1);
      frame_message(kBlynkHardware, body.str());
    }

    // Camera frame rides as a binary property update.
    const auto& frames = in.of(sensors::SensorId::kS10Camera);
    std::size_t image_bytes = 0;
    if (!frames.empty() && !frames.blob(frames.size() - 1).empty()) {
      const auto& blob = frames.blob(frames.size() - 1);
      image_bytes = blob.size();
      std::string body{blob.begin(),
                       blob.begin() + static_cast<std::ptrdiff_t>(
                                          std::min<std::size_t>(blob.size(), 20 * 1024))};
      frame_message(kBlynkHardware, body);
    }

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.net_payload_bytes = used;
    out.metric = static_cast<double>(messages);
    std::ostringstream os;
    os << "messages=" << messages << " bytes=" << used << " image=" << image_bytes;
    out.summary = os.str();
    return out;
  }

 private:
  std::uint16_t next_msg_id_ = 1;
};

}  // namespace

std::unique_ptr<IotApp> make_blynk_app() { return std::make_unique<BlynkApp>(); }

}  // namespace iotsim::apps
