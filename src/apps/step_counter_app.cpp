// A2 — Step counter (§II-B): band-pass the acceleration magnitude around
// the gait band, then adaptive peak detection; one peak = one step.
#include <cmath>
#include <sstream>

#include "apps/iot_app.h"
#include "dsp/filters.h"
#include "dsp/peak_detect.h"

namespace iotsim::apps {

namespace {

class StepCounterApp final : public IotApp {
 public:
  StepCounterApp() : IotApp{spec_of(AppId::kA2StepCounter)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    const auto& samples = in.of(sensors::SensorId::kS4Accelerometer);
    const std::size_t n = samples.size();
    WindowOutput out;
    if (n == 0) {
      out.summary = "no samples";
      return out;
    }

    double* magnitude = ws.alloc<double>(n);
    double* filtered = ws.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto ch = samples.channels(i);
      magnitude[i] = std::sqrt(ch[0] * ch[0] + ch[1] * ch[1] + ch[2] * ch[2]);
    }

    // Gait band ≈ 1–3.5 Hz at a 1 kHz QoS sampling rate.
    const double fs = sensors::spec_of(sensors::SensorId::kS4Accelerometer).qos_rate_hz;
    dsp::Biquad band = dsp::Biquad::band_pass(fs, 2.0, 0.9);
    for (std::size_t i = 0; i < n; ++i) filtered[i] = band.process(magnitude[i]);

    dsp::PeakDetectorConfig cfg;
    cfg.min_distance = static_cast<std::size_t>(fs * 0.3);  // ≤ ~3.3 steps/s
    cfg.k_stddev = 0.9;
    const auto peaks = dsp::detect_peaks({filtered, n}, cfg);

    steps_total_ += peaks.size();
    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);  // app state

    out.metric = static_cast<double>(peaks.size());
    std::ostringstream os;
    os << "steps=" << peaks.size() << " total=" << steps_total_;
    out.summary = os.str();
    return out;
  }

 private:
  std::uint64_t steps_total_ = 0;
};

}  // namespace

std::unique_ptr<IotApp> make_step_counter_app() { return std::make_unique<StepCounterApp>(); }

}  // namespace iotsim::apps
