#include "kernels.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "codecs/jpeg/jpeg_decoder.h"
#include "dsp/dtw.h"
#include "dsp/fft.h"
#include "dsp/mfcc.h"
#include "dsp/pan_tompkins.h"
#include "sensors/sample.h"
#include "sensors/signal_generators.h"
#include "sim/event_queue.h"
#include "sim/random.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median microseconds of `fn()` over repeated calls (at least 20 calls and
/// at least 50 ms). `fn` returns a value folded into a sink so the call is
/// not optimized away.
template <typename Fn>
double median_us(Fn&& fn) {
  std::vector<double> us;
  double sink = 0.0;
  const auto stop = Clock::now() + std::chrono::milliseconds(50);
  while (us.size() < 20 || Clock::now() < stop) {
    const auto t0 = Clock::now();
    sink += fn();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  volatile double keep = sink;
  (void)keep;
  return median(std::move(us));
}

/// The A11 front-end configuration (speech_to_text_app.cpp): 1 kHz audio,
/// 128-sample frames, 64-sample hop.
iotsim::dsp::MfccConfig speech_mfcc() {
  iotsim::dsp::MfccConfig c;
  c.sample_rate_hz = 1000.0;
  c.frame_size = 128;
  c.hop = 64;
  c.mel_bands = 20;
  c.coefficients = 12;
  c.low_freq_hz = 40.0;
  c.high_freq_hz = 480.0;
  return c;
}

}  // namespace

double queue_ns_per_op(iotsim::sim::SchedulerKind kind, std::size_t depth, std::uint64_t seed) {
  using iotsim::sim::Duration;
  using iotsim::sim::SimTime;
  if (depth == 0) return 0.0;
  iotsim::sim::EventQueue q;
  q.force_scheduler(kind);
  iotsim::sim::Rng rng{seed};
  // Delays spread like a fleet's: sample periods from sub-ms to 1 s.
  auto delay = [&] { return Duration::from_us(rng.uniform(10.0, 1e6)); };
  for (std::size_t i = 0; i < depth; ++i) q.schedule(SimTime::origin() + delay(), [] {});
  const std::size_t ops = std::max<std::size_t>(200'000, depth * 20);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    auto popped = q.pop();
    q.schedule(popped.time + delay(), [] {});
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  return ns / static_cast<double>(2 * ops);
}

KernelTimes time_app_kernels(std::uint64_t seed) {
  namespace dsp = iotsim::dsp;
  namespace sensors = iotsim::sensors;
  using iotsim::sim::Duration;
  using iotsim::sim::SimTime;
  KernelTimes t;
  const auto cfg = speech_mfcc();

  const auto audio = sensors::AudioSignal::keyword_waveform(0, cfg.sample_rate_hz, 1.0, 0.8);
  const std::vector<double> frame(audio.begin(), audio.begin() + static_cast<long>(cfg.frame_size));
  t.fft_us = median_us([&] { return dsp::power_spectrum(frame).front(); });
  t.mfcc_us = median_us([&] { return dsp::mfcc(audio, cfg).front().front(); });

  const auto window = dsp::mfcc(audio, cfg);
  const auto keyword = dsp::mfcc(
      sensors::AudioSignal::keyword_waveform(1, cfg.sample_rate_hz, 0.6, 0.8), cfg);
  t.dtw_us = median_us([&] { return dsp::dtw_distance(window, keyword); });

  sensors::PulseSignal pulse{sensors::PulseSignal::Config{}, iotsim::sim::Rng{seed}};
  std::vector<double> ecg;
  sensors::Sample s;
  for (int i = 0; i < 1300; ++i) {
    pulse.generate(SimTime::origin() + Duration::from_ms(i), s);
    ecg.push_back(s.channels.at(0));
  }
  dsp::PanTompkinsConfig qrs_cfg;
  t.qrs_us = median_us([&] { return dsp::detect_qrs(ecg, qrs_cfg).mean_bpm; });

  sensors::CameraSignal camera{sensors::CameraSignal::Config{}, iotsim::sim::Rng{seed}};
  sensors::Sample frame_sample;
  camera.generate(SimTime::origin(), frame_sample);
  const auto& blob = frame_sample.blob;
  t.jpeg_decode_us = median_us([&] {
    return static_cast<double>(iotsim::codecs::jpeg::decode(blob).stats.blocks_decoded);
  });
  return t;
}

}  // namespace perfbench
