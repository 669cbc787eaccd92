// The MCU board's micro-controller: a Processor with one sleep mode,
// modeling the ESP8266's L106 core, plus the board's RAM budget that gates
// batching buffer sizes and COM offload feasibility.
#pragma once

#include <cstddef>

#include "energy/power_model.h"
#include "hw/processor.h"

namespace iotsim::hw {

class Mcu : public Processor {
 public:
  Mcu(sim::Simulator& sim, energy::EnergyAccountant& acct, const energy::McuPowerSpec& spec,
      double nominal_mips, std::size_t available_ram_bytes, std::string name = "mcu");

  /// RAM available to batching buffers / offloaded app state.
  [[nodiscard]] std::size_t available_ram() const { return available_ram_; }

  /// Claims `bytes` of MCU RAM; returns false if it would overflow.
  [[nodiscard]] bool reserve_ram(std::size_t bytes);
  [[nodiscard]] std::size_t reserved_ram() const { return reserved_; }

 private:
  std::size_t available_ram_;
  std::size_t reserved_ = 0;
};

[[nodiscard]] ProcessorSpec make_mcu_processor_spec(const energy::McuPowerSpec& spec,
                                                    double nominal_mips);

}  // namespace iotsim::hw
