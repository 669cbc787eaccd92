// The assembled IoT hub: main board (CPU, WiFi NIC, base power) + MCU board
// (MCU, its WiFi, base power) + the UART link between them + per-sensor PIO
// buses (§II-A, Fig. 2a).
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "energy/energy_accountant.h"
#include "energy/power_state_machine.h"
#include "hw/boards.h"
#include "hw/bus.h"
#include "hw/cpu.h"
#include "hw/interrupt_controller.h"
#include "hw/mcu.h"
#include "hw/nic.h"

namespace iotsim::sim {
class Simulator;
}

namespace iotsim::hw {

class IotHub {
 public:
  /// `name` scopes this hub's components in the shared EnergyAccountant:
  /// empty (the default, and the single-hub back-compat path) registers the
  /// historical flat names ("cpu", "mcu", …); a fleet runner passes "hub0",
  /// "hub1", … and every component becomes "hub0/cpu", "hub0/mcu", … so one
  /// ledger can account many hubs side by side.
  IotHub(sim::Simulator& sim, energy::EnergyAccountant& acct, HubSpec spec,
         std::string name = {});

  [[nodiscard]] const HubSpec& spec() const { return spec_; }
  [[nodiscard]] Cpu& cpu() { return cpu_; }
  [[nodiscard]] Mcu& mcu() { return mcu_; }
  [[nodiscard]] InterruptController& irq() { return irq_; }
  [[nodiscard]] Nic& main_nic() { return main_nic_; }
  [[nodiscard]] Nic& mcu_nic() { return mcu_nic_; }

  /// Adds a PIO bus on the MCU board for one sensor. Returned reference is
  /// stable for the hub's lifetime.
  Bus& add_pio_bus(const std::string& sensor_name);

  /// Moves `bytes` across the CPU<->MCU link: CPU and MCU are both busy for
  /// the software+wire time (there is no DMA — the paper's §IV-F points at
  /// exactly this), while the link medium draws physical-transfer power.
  [[nodiscard]] sim::Task<void> transfer_to_cpu(std::size_t bytes, energy::Routine attr);

  /// Closes all open power segments (call when a scenario run ends).
  void flush_power();

  /// Attaches every component's power machine to a trace.
  template <typename Trace>
  void attach_trace(Trace& trace) {
    trace.attach(cpu_.power(), prefix_ + "cpu");
    trace.attach(mcu_.power(), prefix_ + "mcu");
    trace.attach(link_.power(), prefix_ + "link");
    trace.attach(main_nic_.power(), prefix_ + "main_nic");
    trace.attach(mcu_nic_.power(), prefix_ + "mcu_nic");
    trace.attach(main_base_, prefix_ + "main_board_base");
    trace.attach(mcu_base_, prefix_ + "mcu_board_base");
    for (auto& b : pio_buses_) trace.attach(b->power(), b->name());
  }

 private:
  sim::Simulator& sim_;
  energy::EnergyAccountant& acct_;
  std::string prefix_;  // "" or name + "/"; must precede the components
  HubSpec spec_;
  Cpu cpu_;
  Mcu mcu_;
  Bus link_;
  Nic main_nic_;
  Nic mcu_nic_;
  InterruptController irq_;
  // Base (always-on) board power, attributed to Idle: the Fig. 1 idle floor.
  energy::PowerStateMachine main_base_;
  energy::PowerStateMachine mcu_base_;
  std::deque<std::unique_ptr<Bus>> pio_buses_;
};

}  // namespace iotsim::hw
