#include "env/hub_environment.h"

#include "check/check.h"

namespace iotsim::env {

namespace {
// Crash RNG salt: keeps the crash stream independent of the hub RNG's fork
// sequence, like the NIC backoff salts in HubRuntime. The value is the low
// 64 bits of 0x656E7663726173686 ("envcrash" in ASCII plus a stray 6)
// shifted right by 4: what GCC computes from that over-long literal, which
// is not valid C++. Any other salt would move every crash of a crashing
// fleet, and so its results.
constexpr std::uint64_t kCrashSalt = 0x056E766372617368ull;
}  // namespace

HubEnvironment::HubEnvironment(const EnvironmentConfig& cfg, std::uint64_t hub_seed,
                               int windows, sim::Duration window)
    : cfg_{cfg},
      windows_{windows},
      window_{window},
      crash_rng_{hub_seed ^ kCrashSalt},
      power_{make_power_source(cfg.power)},
      lost_(static_cast<std::size_t>(windows), 0) {
  stats_.modeled = true;
  stats_.power_limited = power_->finite();
}

bool HubEnvironment::needs_supervisor() const {
  return cfg_.crash.crash_prob_per_window > 0.0 || power_->finite();
}

bool HubEnvironment::window_lost(int w) const {
  return w >= 0 && w < windows_ && lost_[static_cast<std::size_t>(w)] != 0;
}

void HubEnvironment::mark_lost(int w) {
  if (w < 0 || w >= windows_) return;
  auto& flag = lost_[static_cast<std::size_t>(w)];
  if (flag != 0) return;
  flag = 1;
  ++stats_.windows_lost;
  stats_.downtime += window_;
}

std::optional<sim::Duration> HubEnvironment::crash_at(int w) {
  (void)w;
  if (!up_ || cfg_.crash.crash_prob_per_window <= 0.0) return std::nullopt;
  if (!crash_rng_.bernoulli(cfg_.crash.crash_prob_per_window)) return std::nullopt;
  return sim::Duration::from_seconds(window_.to_seconds() * crash_rng_.uniform());
}

void HubEnvironment::apply_crash(int w, std::uint64_t buffered_samples) {
  IOTSIM_CHECK(up_, "crash applied to a hub that is already down (window %d)", w);
  up_ = false;
  ++stats_.reboots;
  stats_.samples_lost_crash += buffered_samples;
  // Down through the rest of window w plus reboot_windows - 1 further ones.
  down_until_window_ = w + cfg_.crash.reboot_windows;
  for (int i = w; i < down_until_window_ && i < windows_; ++i) mark_lost(i);
}

void HubEnvironment::end_of_window(int w, sim::SimTime begin, sim::SimTime end,
                                   double consumed_j) {
  // Bill only live windows: a browned-out or rebooting hub draws nothing
  // from its source (its ledger keeps integrating resting power, but that
  // energy is the cost of being deployed, not of being powered — see
  // docs/architecture.md §13). Harvest accrues regardless.
  const PowerWindow pw =
      power_->end_of_window(begin, end, window_lost(w) ? 0.0 : consumed_j);
  stats_.billed_j += pw.billed_j;
  stats_.harvested_j += pw.harvested_j;

  const int next = w + 1;
  if (next >= windows_) return;

  if (!up_ && !outage_ && next >= down_until_window_) {
    // Reboot finished at this boundary; power may still veto below.
    up_ = true;
  }
  if (power_->finite()) {
    if (up_ && !pw.available) {
      up_ = false;
      outage_ = true;
    } else if (outage_ && pw.available && next >= down_until_window_) {
      up_ = true;
      outage_ = false;
    }
  }
  if (!up_) mark_lost(next);
}

AvailabilityStats HubEnvironment::availability() const {
  AvailabilityStats s = stats_;
  s.stored_j = power_->stored_joules();
  s.uptime_fraction =
      windows_ > 0
          ? 1.0 - static_cast<double>(s.windows_lost) / static_cast<double>(windows_)
          : 1.0;
  return s;
}

}  // namespace iotsim::env
