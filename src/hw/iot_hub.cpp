#include "hw/iot_hub.h"

#include "sim/join.h"
#include "sim/simulator.h"

namespace iotsim::hw {

IotHub::IotHub(sim::Simulator& sim, energy::EnergyAccountant& acct, HubSpec spec,
               std::string name)
    : sim_{sim},
      acct_{acct},
      prefix_{name.empty() ? std::string{} : name + "/"},
      spec_{spec},
      cpu_{sim, acct, spec_.cpu, spec_.cpu_nominal_mips, prefix_ + "cpu"},
      mcu_{sim, acct, spec_.mcu, spec_.mcu_nominal_mips, spec_.mcu_available_ram(),
           prefix_ + "mcu"},
      link_{sim, acct, prefix_ + "link", spec_.link_bus},
      main_nic_{sim, acct, prefix_ + "main_nic", spec_.main_nic},
      mcu_nic_{sim, acct, prefix_ + "mcu_nic", spec_.mcu_nic},
      irq_{cpu_, mcu_, spec_.interrupt_raise, spec_.interrupt_dispatch},
      main_base_{sim,
                 acct,
                 acct.register_component(prefix_ + "main_board_base"),
                 {{"on", spec_.main_board_base_w}},
                 0},
      mcu_base_{sim,
                acct,
                acct.register_component(prefix_ + "mcu_board_base"),
                {{"on", spec_.mcu_board_base_w}},
                0} {}

Bus& IotHub::add_pio_bus(const std::string& sensor_name) {
  // Accountant component names must be unique enough for reporting; prefix
  // keeps sensor buses recognisable.
  pio_buses_.push_back(
      std::make_unique<Bus>(sim_, acct_, prefix_ + "pio_" + sensor_name, spec_.pio_bus));
  return *pio_buses_.back();
}

sim::Task<void> IotHub::transfer_to_cpu(std::size_t bytes, energy::Routine attr) {
  if (spec_.dma_enabled) {
    // §IV-F hardware extension: the CPU programs the channel, then the
    // engine clocks the bytes while both processors are free to sleep
    // (their idle depth is whatever their current waiters allow).
    co_await cpu_.execute(spec_.dma_setup, attr);
    const sim::Duration wire = spec_.transfer_per_byte * static_cast<std::int64_t>(bytes);
    co_await sim::when_all(sim_, link_.occupy(wire, attr),
                           cpu_.wait(wire, SleepPolicy::kLightSleep, attr));
    co_return;
  }
  const sim::Duration t = spec_.transfer_time(bytes);
  // CPU, MCU and the physical link are all occupied for the full transfer:
  // programmed IO on both ends (no DMA).
  co_await sim::when_all(sim_, link_.occupy(t, attr),
                         sim::when_all(sim_, cpu_.execute(t, attr), mcu_.execute(t, attr)));
}

void IotHub::flush_power() {
  cpu_.power().flush();
  mcu_.power().flush();
  link_.power().flush();
  main_nic_.power().flush();
  mcu_nic_.power().flush();
  main_base_.flush();
  mcu_base_.flush();
  for (auto& b : pio_buses_) b->power().flush();
}

}  // namespace iotsim::hw
