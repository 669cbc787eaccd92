// A8 — Heartbeat irregularity detection: Pan–Tompkins QRS detection over
// the pulse waveform. R-peak times are tracked in absolute time across
// windows so RR intervals span window boundaries (at 72 bpm a 1-second
// window only holds one beat).
#include <cmath>
#include <sstream>

#include "apps/iot_app.h"
#include "dsp/pan_tompkins.h"

namespace iotsim::apps {

namespace {

class HeartbeatApp final : public IotApp {
 public:
  HeartbeatApp() : IotApp{spec_of(AppId::kA8Heartbeat)} {}

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;
    const auto& samples = in.of(sensors::SensorId::kS6Pulse);
    if (samples.empty()) {
      out.summary = "no samples";
      return out;
    }

    // Prepend the previous window's tail so beats riding the window
    // boundary (and the filter's warm-up transient) are not lost; the
    // refractory dedup below removes re-detections.
    const std::size_t n = samples.size() + tail_values_.size();
    double* ecg = ws.alloc<double>(n);
    double* times = ws.alloc<double>(n);
    for (std::size_t i = 0; i < tail_values_.size(); ++i) {
      ecg[i] = tail_values_[i];
      times[i] = tail_times_[i];
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      ecg[tail_values_.size() + i] = samples.value(i);
      times[tail_values_.size() + i] = samples.time(i).to_seconds();
    }

    dsp::PanTompkinsConfig cfg;
    cfg.sample_rate_hz = sensors::spec_of(sensors::SensorId::kS6Pulse).qos_rate_hz;
    const dsp::QrsResult window_result = dsp::detect_qrs({ecg, n}, cfg);

    // Convert peak indices to absolute beat times and append to the
    // cross-window history (dropping any peak too close to the last
    // recorded beat — a boundary duplicate).
    for (std::size_t idx : window_result.r_peaks) {
      const double t = times[idx];
      if (!beat_times_.empty() && t - beat_times_.back() < cfg.refractory_s) continue;
      beat_times_.push_back(t);
      if (beat_times_.size() > 64) beat_times_.erase(beat_times_.begin());
    }

    // Keep the last ~0.3 s for the next window's overlap.
    const std::size_t tail_n =
        std::min<std::size_t>(samples.size(), static_cast<std::size_t>(cfg.sample_rate_hz * 0.3));
    tail_values_.clear();
    tail_times_.clear();
    for (std::size_t i = samples.size() - tail_n; i < samples.size(); ++i) {
      tail_values_.push_back(samples.value(i));
      tail_times_.push_back(samples.time(i).to_seconds());
    }

    double mean_rr = 0.0, rmssd = 0.0;
    if (beat_times_.size() >= 2) {
      std::vector<double> rr;
      for (std::size_t i = 1; i < beat_times_.size(); ++i) {
        rr.push_back(beat_times_[i] - beat_times_[i - 1]);
      }
      for (double v : rr) mean_rr += v;
      mean_rr /= static_cast<double>(rr.size());
      if (rr.size() >= 2) {
        double sq = 0.0;
        for (std::size_t i = 1; i < rr.size(); ++i) {
          const double d = rr[i] - rr[i - 1];
          sq += d * d;
        }
        rmssd = std::sqrt(sq / static_cast<double>(rr.size() - 1));
      }
    }

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    const bool irregular = mean_rr > 0.0 && rmssd > 0.15 * mean_rr;
    out.event = irregular;
    out.metric = mean_rr > 0.0 ? 60.0 / mean_rr : 0.0;
    std::ostringstream os;
    os << "bpm=" << out.metric << " rmssd=" << rmssd << " beats=" << beat_times_.size()
       << (irregular ? " IRREGULAR" : "");
    out.summary = os.str();
    return out;
  }

 private:
  std::vector<double> beat_times_;   // absolute seconds
  std::vector<double> tail_values_;  // overlap carried to the next window
  std::vector<double> tail_times_;
};

}  // namespace

std::unique_ptr<IotApp> make_heartbeat_app() { return std::make_unique<HeartbeatApp>(); }

}  // namespace iotsim::apps
