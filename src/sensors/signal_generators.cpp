#include "sensors/signal_generators.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "check/check.h"
#include "codecs/jpeg/jpeg_encoder.h"

namespace iotsim::sensors {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}

// ---------------------------------------------------------------- gait ----

void AccelerometerSignal::generate(sim::SimTime t, Sample& out) {
  const double ts = t.to_seconds();
  const double phase = kTwoPi * cfg_.step_rate_hz * ts;
  double x = 0.4 * cfg_.step_amp * std::sin(phase + 0.7);
  double y = 0.2 * cfg_.step_amp * std::sin(0.5 * phase);
  // Vertical: gravity + bounce with harmonic (heel strikes).
  double z = 9.81 + cfg_.step_amp * std::sin(phase) + 0.35 * cfg_.step_amp * std::sin(2 * phase);

  for (const auto& quake : cfg_.quakes) {
    if (ts >= quake.start_s && ts < quake.start_s + quake.duration_s) {
      x += quake.magnitude * rng_.normal();
      y += quake.magnitude * rng_.normal();
      z += quake.magnitude * rng_.normal();
    }
  }
  x += cfg_.noise * rng_.normal();
  y += cfg_.noise * rng_.normal();
  z += cfg_.noise * rng_.normal();
  out.channels = {x, y, z};
}

// --------------------------------------------------------------- pulse ----

PulseSignal::PulseSignal(Config cfg, sim::Rng rng) : cfg_{cfg}, rng_{rng} {
  // Every RR interval is then positive, so the beat times ascend.
  IOTSIM_CHECK(cfg_.bpm > 0.0 && cfg_.rr_jitter >= 0.0 && cfg_.rr_jitter < 1.0,
               "pulse: bpm %g must be positive and rr_jitter %g in [0, 1)", cfg_.bpm,
               cfg_.rr_jitter);
  beat_times_s_.push_back(0.35);
}

void PulseSignal::extend_beats_until(double t_s) {
  while (beat_times_s_.back() < t_s + 2.0) {
    const double period = 60.0 / cfg_.bpm;
    double rr = period * (1.0 + cfg_.rr_jitter * rng_.uniform(-1.0, 1.0));
    if (cfg_.irregular_prob > 0.0 && rng_.bernoulli(cfg_.irregular_prob)) {
      rr *= rng_.bernoulli(0.5) ? 0.55 : 1.6;  // premature beat or pause
    }
    beat_times_s_.push_back(beat_times_s_.back() + rr);
  }
}

void PulseSignal::generate(sim::SimTime t, Sample& out) {
  const double ts = t.to_seconds();
  extend_beats_until(ts);
  // A beat shapes the waveform from 0.5 s before to 0.8 s after it. The
  // beats ascend, so those in range are one run: from the first with
  // dt <= 0.8 up to the first with dt < -0.5. The run always ends, since
  // the last beat lies 2 s ahead.
  if (ts < last_t_s_) first_beat_ = 0;
  last_t_s_ = ts;
  while (ts - beat_times_s_[first_beat_] > 0.8) ++first_beat_;
  double v = 0.0;
  for (std::size_t i = first_beat_; i < beat_times_s_.size(); ++i) {
    const double dt = ts - beat_times_s_[i];
    if (dt < -0.5) break;
    v += 1.2 * std::exp(-dt * dt / (2 * 0.008 * 0.008));                        // R
    v += 0.15 * std::exp(-(dt - 0.18) * (dt - 0.18) / (2 * 0.045 * 0.045));     // T
    v -= 0.08 * std::exp(-(dt + 0.05) * (dt + 0.05) / (2 * 0.012 * 0.012));     // Q
  }
  v += cfg_.noise * rng_.normal();
  out.channels = {v};
}

// --------------------------------------------------------- environment ----

void EnvironmentSignal::generate(sim::SimTime t, Sample& out) {
  const double ts = t.to_seconds();
  value_ += cfg_.walk_step * rng_.normal();
  value_ += cfg_.reversion * (cfg_.mean - value_);
  value_ = std::clamp(value_, cfg_.min, cfg_.max);
  double v = value_;
  if (cfg_.diurnal_amp != 0.0) {
    v += cfg_.diurnal_amp * std::sin(kTwoPi * ts / 86400.0);
  }
  v += cfg_.noise * rng_.normal();
  out.channels = {std::clamp(v, cfg_.min, cfg_.max)};
}

// --------------------------------------------------------------- audio ----

std::vector<double> AudioSignal::keyword_waveform(int word_id, double sample_rate_hz,
                                                  double duration_s, double level) {
  // Three formant-like tone segments whose frequencies are derived from the
  // word id — distinct words get distinct spectro-temporal shapes.
  const auto n = static_cast<std::size_t>(duration_s * sample_rate_hz);
  std::vector<double> wave(n, 0.0);
  const double f1 = 80.0 + 35.0 * ((word_id * 7) % 5);
  const double f2 = 160.0 + 45.0 * ((word_id * 13) % 5);
  const double f3 = 260.0 + 55.0 * ((word_id * 3) % 4);
  const double seg = duration_s / 3.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double ts = static_cast<double>(i) / sample_rate_hz;
    double f = ts < seg ? f1 : (ts < 2 * seg ? f2 : f3);
    // Soft attack/decay envelope.
    const double env = std::sin(std::numbers::pi * ts / duration_s);
    wave[i] = level * env * std::sin(kTwoPi * f * ts);
  }
  return wave;
}

void AudioSignal::generate(sim::SimTime t, Sample& out) {
  const double ts = t.to_seconds();
  double v = cfg_.ambient_level * rng_.normal();
  for (const auto& u : cfg_.utterances) {
    const double dt = ts - u.start_s;
    if (dt < 0.0 || dt >= cfg_.utterance_duration_s) continue;
    const double f1 = 80.0 + 35.0 * ((u.word_id * 7) % 5);
    const double f2 = 160.0 + 45.0 * ((u.word_id * 13) % 5);
    const double f3 = 260.0 + 55.0 * ((u.word_id * 3) % 4);
    const double seg = cfg_.utterance_duration_s / 3.0;
    const double f = dt < seg ? f1 : (dt < 2 * seg ? f2 : f3);
    const double env = std::sin(std::numbers::pi * dt / cfg_.utterance_duration_s);
    v += cfg_.utterance_level * env * std::sin(kTwoPi * f * dt);
  }
  out.channels = {v};
}

// -------------------------------------------------------------- camera ----

void CameraSignal::generate(sim::SimTime t, Sample& out) {
  const double ts = t.to_seconds();
  const int w = cfg_.width;
  const int h = cfg_.height;
  // A bright square drifting across the scene covers [ox, ox_end) of the
  // rows [oy, oy_end); elsewhere the background is a gradient.
  int ox = 0, ox_end = 0, oy = 0, oy_end = 0;
  if (cfg_.moving_object) {
    ox = static_cast<int>(std::fmod(ts * 40.0, cfg_.width - 40));
    ox_end = std::min(ox + 32, w);
    oy = h / 3;
    oy_end = std::min(oy + 32, h);
  }
  std::vector<int> red(static_cast<std::size_t>(w));
  std::vector<int> blue(static_cast<std::size_t>(w + h));
  for (int x = 0; x < w; ++x) red[static_cast<std::size_t>(x)] = (x * 200) / w + 30;
  for (int s = 0; s < w + h; ++s) blue[static_cast<std::size_t>(s)] = (s * 150) / (w + h) + 50;

  // Per-pixel sensor noise, one draw per pixel in raster order: calibrated
  // so a 320×240 frame compresses to ≈24 KB, the low-res camera's Table I
  // output size.
  auto put = [this](std::uint8_t* p, int r, int g, int b) {
    const int n = static_cast<int>(rng_.uniform_int(-16, 16));
    p[0] = static_cast<std::uint8_t>(std::clamp(r + n, 0, 255));
    p[1] = static_cast<std::uint8_t>(std::clamp(g + n, 0, 255));
    p[2] = static_cast<std::uint8_t>(std::clamp(b + n, 0, 255));
  };
  auto img = codecs::jpeg::Image::allocate(w, h);
  for (int y = 0; y < h; ++y) {
    std::uint8_t* p = img.pixel(0, y);
    const int green = (y * 200) / h + 20;
    const bool object_row = y >= oy && y < oy_end;
    const int object_begin = object_row ? std::clamp(ox, 0, w) : w;
    const int object_end = object_row ? std::clamp(ox_end, object_begin, w) : w;
    int x = 0;
    for (; x < object_begin; ++x, p += 3) {
      put(p, red[static_cast<std::size_t>(x)], green, blue[static_cast<std::size_t>(x + y)]);
    }
    for (; x < object_end; ++x, p += 3) put(p, 240, 220, 40);
    for (; x < w; ++x, p += 3) {
      put(p, red[static_cast<std::size_t>(x)], green, blue[static_cast<std::size_t>(x + y)]);
    }
  }
  out.blob = codecs::jpeg::encode(img, codecs::jpeg::EncoderConfig{cfg_.quality});
  out.channels = {static_cast<double>(out.blob.size())};
}

// --------------------------------------------------------- fingerprint ----

FingerprintSignal::FingerprintSignal(Config cfg, sim::Rng rng) : cfg_{cfg}, rng_{rng} {
  for (std::uint16_t id = 1; id <= cfg_.population; ++id) {
    codecs::fingerprint::Template tpl;
    tpl.subject_id = id;
    for (std::size_t i = 0; i < cfg_.minutiae_per_finger; ++i) {
      codecs::fingerprint::Minutia m;
      m.x = static_cast<std::uint16_t>(rng_.uniform_int(0, 499));
      m.y = static_cast<std::uint16_t>(rng_.uniform_int(0, 499));
      m.angle_cdeg = static_cast<std::uint16_t>(rng_.uniform_int(0, 35999));
      m.type = rng_.bernoulli(0.5) ? codecs::fingerprint::MinutiaType::kRidgeEnding
                                   : codecs::fingerprint::MinutiaType::kBifurcation;
      m.quality = static_cast<std::uint8_t>(rng_.uniform_int(50, 100));
      tpl.minutiae.push_back(m);
    }
    enrolled_.push_back(std::move(tpl));
  }
}

void FingerprintSignal::generate(sim::SimTime, Sample& out) {
  codecs::fingerprint::Template probe;
  if (rng_.bernoulli(cfg_.stranger_prob)) {
    probe.subject_id = 0;  // stranger
    for (std::size_t i = 0; i < cfg_.minutiae_per_finger; ++i) {
      codecs::fingerprint::Minutia m;
      m.x = static_cast<std::uint16_t>(rng_.uniform_int(0, 499));
      m.y = static_cast<std::uint16_t>(rng_.uniform_int(0, 499));
      m.angle_cdeg = static_cast<std::uint16_t>(rng_.uniform_int(0, 35999));
      m.type = rng_.bernoulli(0.5) ? codecs::fingerprint::MinutiaType::kRidgeEnding
                                   : codecs::fingerprint::MinutiaType::kBifurcation;
      probe.minutiae.push_back(m);
    }
  } else {
    const auto& base =
        enrolled_[static_cast<std::size_t>(rng_.uniform_int(0, cfg_.population - 1))];
    probe.subject_id = base.subject_id;
    for (const auto& m : base.minutiae) {
      if (rng_.bernoulli(0.12)) continue;  // missed minutia on recapture
      codecs::fingerprint::Minutia j = m;
      j.x = static_cast<std::uint16_t>(
          std::clamp<std::int64_t>(m.x + rng_.uniform_int(-4, 4), 0, 499));
      j.y = static_cast<std::uint16_t>(
          std::clamp<std::int64_t>(m.y + rng_.uniform_int(-4, 4), 0, 499));
      j.angle_cdeg =
          static_cast<std::uint16_t>((m.angle_cdeg + 36000 + rng_.uniform_int(-400, 400)) % 36000);
      probe.minutiae.push_back(j);
    }
  }
  out.blob = codecs::fingerprint::serialize(probe);
  out.channels = {static_cast<double>(probe.subject_id)};
}

}  // namespace iotsim::sensors
