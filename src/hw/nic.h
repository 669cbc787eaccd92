// WiFi network interface with tail-energy modeling.
//
// After a burst the radio lingers in a high-power listen state (the classic
// WiFi/cellular "tail"); back-to-back bursts coalesce tails. The main board
// and the MCU board (ESP8266 — itself a WiFi SoC) each carry one NIC; the
// MCU NIC is slower but much cheaper, which is where COM's advantage on
// cloud-facing apps comes from (§IV-E).
//
// A NIC may be attached to a net::Medium (attach_medium); every burst then
// acquires airtime from the medium before clocking bytes. While contending
// for a busy channel the radio idle-listens at tail power, so congestion
// stretches the high-power window exactly as on real radios — and coalesces
// tails across the wait. Unattached NICs (and NICs on net::IdealMedium)
// behave byte-identically to the pre-medium model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "energy/power_model.h"
#include "energy/power_state_machine.h"
#include "net/medium.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace iotsim::sim {
class Simulator;
}

namespace iotsim::hw {

class Nic {
 public:
  Nic(sim::Simulator& sim, energy::EnergyAccountant& acct, std::string name,
      energy::NicPowerSpec spec);

  /// Routes this NIC's bursts through `medium`, claiming `slot` on it (hub
  /// i's main/MCU NICs take 2i and 2i+1) so attachment handles do not
  /// depend on cross-shard construction order, and hands the medium this
  /// NIC's kernel for request timestamps. `backoff_rng` seeds the medium's
  /// randomized backoff for this NIC — derive it from the hub seed so runs
  /// stay deterministic. The medium must outlive the NIC.
  void attach_medium(net::Medium& medium, sim::Rng backoff_rng, std::size_t slot);

  /// Time on the wire for a burst of `bytes` at this NIC's own speed; a
  /// slower shared medium may stretch the actual airtime.
  [[nodiscard]] sim::Duration wire_time(std::size_t bytes) const;

  /// Clocks `bytes` out; returns after airtime (wire time plus any
  /// contention wait). The post-burst tail is accounted asynchronously.
  [[nodiscard]] sim::Task<void> transmit(std::size_t bytes,
                                         energy::Routine attr = energy::Routine::kNetwork);

  /// Clocks `bytes` in.
  [[nodiscard]] sim::Task<void> receive(std::size_t bytes,
                                        energy::Routine attr = energy::Routine::kNetwork);

  /// Contention counters from the attached medium; nullptr if unattached.
  [[nodiscard]] const net::AirtimeStats* airtime_stats() const;
  [[nodiscard]] energy::PowerStateMachine& power() { return psm_; }

 private:
  static constexpr energy::PowerStateMachine::StateId kIdle = 0;
  static constexpr energy::PowerStateMachine::StateId kTx = 1;
  static constexpr energy::PowerStateMachine::StateId kRx = 2;
  static constexpr energy::PowerStateMachine::StateId kTail = 3;

  /// A burst the medium rejects (pending queue full) moves no bytes and
  /// arms no tail beyond the listen already spent.
  [[nodiscard]] sim::Task<void> burst(std::size_t bytes, energy::PowerStateMachine::StateId state,
                                      energy::Routine attr);
  void arm_tail(energy::Routine attr);
  void enter_listen(energy::Routine attr);

  sim::Simulator& sim_;
  std::string name_;
  energy::NicPowerSpec spec_;
  energy::PowerStateMachine psm_;
  sim::SimMutex mutex_;
  net::Medium* medium_ = nullptr;
  std::size_t attachment_ = 0;
  std::uint64_t tail_generation_ = 0;
};

}  // namespace iotsim::hw
