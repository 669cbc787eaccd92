// A7 — Earthquake detection (Smart City): STA/LTA trigger on the
// high-passed acceleration magnitude; a trigger is then "verified" against
// the public earthquake API (the §IV-E1 network task, costed by the
// runtime through the app's NetProfile).
#include <cmath>
#include <sstream>

#include "apps/iot_app.h"
#include "dsp/filters.h"
#include "dsp/sta_lta.h"

namespace iotsim::apps {

namespace {

class EarthquakeApp final : public IotApp {
 public:
  EarthquakeApp() : IotApp{spec_of(AppId::kA7Earthquake)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;
    const auto& samples = in.of(sensors::SensorId::kS4Accelerometer);
    if (samples.empty()) {
      out.summary = "no samples";
      return out;
    }

    const std::size_t n = samples.size();
    double* detrended = ws.alloc<double>(n);
    // High-pass above the gait band: earthquakes are broadband, walking is
    // a narrow ~2 Hz line; remove gravity and gait before triggering.
    const double fs = sensors::spec_of(sensors::SensorId::kS4Accelerometer).qos_rate_hz;
    dsp::Biquad hp = dsp::Biquad::high_pass(fs, 12.0);
    for (std::size_t i = 0; i < n; ++i) {
      const auto ch = samples.channels(i);
      const double magnitude = std::sqrt(ch[0] * ch[0] + ch[1] * ch[1] + ch[2] * ch[2]);
      detrended[i] = hp.process(magnitude);
    }

    dsp::StaLtaConfig cfg;
    cfg.sta_window = static_cast<std::size_t>(fs * 0.05);
    cfg.lta_window = static_cast<std::size_t>(fs * 0.5);
    cfg.trigger_ratio = 4.5;
    const auto events = dsp::sta_lta_events({detrended, n}, cfg);

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    out.event = !events.empty();
    out.metric = static_cast<double>(events.size());
    // Verification query goes out only when a trigger fired.
    out.net_payload_bytes = events.empty() ? 0 : spec().net.upload_bytes;
    std::ostringstream os;
    if (events.empty()) {
      os << "quiet";
    } else {
      os << "events=" << events.size() << " peak_ratio=" << events.front().peak_ratio;
    }
    out.summary = os.str();
    return out;
  }
};

}  // namespace

std::unique_ptr<IotApp> make_earthquake_app() { return std::make_unique<EarthquakeApp>(); }

}  // namespace iotsim::apps
