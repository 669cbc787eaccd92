// Power specifications for the simulated hub components.
//
// Two parameter sets ship with the library:
//  * paper_reference_cpu(): the illustrative numbers quoted in §III-A of the
//    paper (5 W active, 1.5 W sleep, 2.5 W × 1.6 ms transition ⇒ 1.14 ms
//    break-even) — used by the break-even ablation bench.
//  * calibrated hub spec (hw::default_hub_spec()): the self-consistent set
//    that reproduces the paper's *percentage* breakdowns and savings on our
//    simulated substrate (see DESIGN.md §4 and EXPERIMENTS.md).
#pragma once

#include "sim/sim_time.h"

namespace iotsim::energy {

/// CPU core complex power model with two sleep depths (Linux cpuidle-style):
/// light sleep (fast wake, used inside an app window) and deep sleep (slow
/// wake, used when the hub is idle or fully offloaded).
struct CpuPowerSpec {
  double active_w = 1.9;  // powered but stalled
  double busy_w = 0.0;    // executing; 0 ⇒ same as active_w
  double light_sleep_w = 0.45;
  double deep_sleep_w = 0.12;
  double transition_w = 1.2;
  sim::Duration light_wake_latency = sim::Duration::from_ms(1.6);
  sim::Duration deep_wake_latency = sim::Duration::from_ms(10.0);

  /// Minimum idle gap for which entering light sleep saves energy (§III-A):
  ///   E_transition / (P_active − P_sleep)
  [[nodiscard]] sim::Duration light_sleep_breakeven() const {
    const double joules = transition_w * light_wake_latency.to_seconds();
    return sim::Duration::from_seconds(joules / (active_w - light_sleep_w));
  }
};

/// The paper's quoted reference numbers (§III-A): break-even 1.14 ms.
[[nodiscard]] CpuPowerSpec paper_reference_cpu();

/// ESP8266-class micro-controller power model.
struct McuPowerSpec {
  double active_w = 1.0;
  double sleep_w = 0.05;
  double transition_w = 0.4;
  sim::Duration wake_latency = sim::Duration::from_us(130.0);

  [[nodiscard]] sim::Duration sleep_breakeven() const {
    const double joules = transition_w * wake_latency.to_seconds();
    return sim::Duration::from_seconds(joules / (active_w - sleep_w));
  }
};

/// A peripheral IO bus (I2C / SPI / UART / analog front-end): power drawn by
/// the physical medium while bits move. Fig. 4's "physical transfer" slice.
struct BusPowerSpec {
  double active_w = 0.25;
  double idle_w = 0.0;
};

/// Network interface (WiFi). The main board and the MCU board each carry
/// one; the ESP8266 is itself a WiFi chip, which is what makes offloaded
/// cloud apps cheap (§IV-E).
struct NicPowerSpec {
  double tx_w = 0.8;
  double rx_w = 0.5;
  double idle_w = 0.0;
  double bytes_per_second = 1.0e6;
  /// Tail time the radio stays in the high-power state after a burst
  /// (classic 3G/WiFi tail-energy effect).
  sim::Duration tail = sim::Duration::from_ms(60.0);
};

}  // namespace iotsim::energy
