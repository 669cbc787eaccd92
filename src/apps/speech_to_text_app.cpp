// A11 — Speech-to-text (heavy-weight): MFCC front-end + DTW keyword search
// against the vocabulary templates — the reproduction's stand-in for the
// PocketSphinx pipeline (same shape: spectral front-end feeding a
// dynamic-programming decoder; §IV-E3). Its 1.43 GB acoustic-model
// footprint is declared in the WorkloadSpec and is what disqualifies it
// from COM.
#include <limits>
#include <sstream>

#include "apps/iot_app.h"
#include "dsp/dtw.h"
#include "dsp/filters.h"
#include "dsp/mfcc.h"
#include "sensors/signal_generators.h"

namespace iotsim::apps {

namespace {

constexpr int kVocabulary = 6;
const char* const kWords[kVocabulary] = {"lights", "music", "warmer",
                                         "cooler", "lock",  "unlock"};

class SpeechToTextApp final : public IotApp {
 public:
  SpeechToTextApp() : IotApp{spec_of(AppId::kA11SpeechToText)} {
    // Build per-word MFCC templates from the canonical keyword waveforms.
    for (int w = 0; w < kVocabulary; ++w) {
      const auto wave = sensors::AudioSignal::keyword_waveform(w, mfcc_cfg().sample_rate_hz,
                                                               0.6, 0.8);
      templates_.push_back(voiced_features(wave));
    }
  }

  /// MFCC of the voiced frames only (frame-level energy VAD): ambient-noise
  /// frames would otherwise dominate the DTW cost.
  static dsp::FeatureSeq voiced_features(std::span<const double> audio) {
    const auto& cfg = mfcc_cfg();
    const auto all = dsp::mfcc(audio, cfg);
    dsp::FeatureSeq out;
    for (std::size_t f = 0; f < all.size(); ++f) {
      const std::size_t start = f * cfg.hop;
      if (dsp::rms(audio.subspan(start, cfg.frame_size)) > 0.1) out.push_back(all[f]);
    }
    return out;
  }

  WindowOutput process_window(const WindowInput& in, trace::Workspace& ws) override {
    trace::StackFrame frame{ws.profiler(), spec().fig6_stack_bytes};
    WindowOutput out;
    const auto& samples = in.of(sensors::SensorId::kS8Sound);
    if (samples.empty()) {
      out.summary = "no audio";
      return out;
    }

    const std::size_t n = samples.size();
    double* audio = ws.alloc<double>(n);
    double energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      audio[i] = samples.value(i);
      energy += audio[i] * audio[i];
    }
    energy /= static_cast<double>(n);

    (void)ws.alloc<std::uint8_t>(spec().scratch_heap_bytes);

    // Voice-activity gate: skip the decoder on silent windows.
    if (energy < 0.02) {
      out.summary = "(silence)";
      return out;
    }

    const auto features = voiced_features({audio, n});
    if (features.empty()) {
      out.summary = "(no voiced frames)";
      return out;
    }
    // Score against the whole vocabulary; accept only a clear winner
    // (best distinctly below the runner-up — a standard rejection rule).
    double best = std::numeric_limits<double>::infinity();
    double second = std::numeric_limits<double>::infinity();
    std::size_t best_idx = templates_.size();
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      const double d = dsp::dtw_distance(features, templates_[i]);
      if (d < best) {
        second = best;
        best = d;
        best_idx = i;
      } else if (d < second) {
        second = d;
      }
    }
    if (best_idx >= templates_.size() || best > 0.93 * second || best > 120.0) {
      out.summary = "(unrecognised)";
      return out;
    }
    ++decoded_;
    out.metric = static_cast<double>(best_idx);
    out.event = true;
    std::ostringstream os;
    os << "word=\"" << kWords[best_idx] << "\" dist=" << best << " total=" << decoded_;
    out.summary = os.str();
    out.net_payload_bytes = 64;  // transcript fragment
    return out;
  }

 private:
  static const dsp::MfccConfig& mfcc_cfg() {
    // The sound channel samples at the sensor's 1 kHz QoS rate.
    static const dsp::MfccConfig cfg = [] {
      dsp::MfccConfig c;
      c.sample_rate_hz = 1000.0;
      c.frame_size = 128;
      c.hop = 64;
      c.mel_bands = 20;
      c.coefficients = 12;
      c.low_freq_hz = 40.0;
      c.high_freq_hz = 480.0;
      return c;
    }();
    return cfg;
  }

  std::vector<dsp::FeatureSeq> templates_;
  std::uint64_t decoded_ = 0;
};

}  // namespace

std::unique_ptr<IotApp> make_speech_to_text_app() {
  return std::make_unique<SpeechToTextApp>();
}

}  // namespace iotsim::apps
