#include "hw/mcu.h"

#include "check/check.h"

namespace iotsim::hw {

ProcessorSpec make_mcu_processor_spec(const energy::McuPowerSpec& spec, double nominal_mips) {
  ProcessorSpec p;
  p.active_w = spec.active_w;
  p.nominal_mips = nominal_mips;
  p.sleep_modes = {SleepMode{spec.sleep_w, spec.wake_latency, spec.transition_w}};
  return p;
}

Mcu::Mcu(sim::Simulator& sim, energy::EnergyAccountant& acct, const energy::McuPowerSpec& spec,
         double nominal_mips, std::size_t available_ram_bytes, std::string name)
    : Processor{sim, acct, std::move(name), make_mcu_processor_spec(spec, nominal_mips)},
      available_ram_{available_ram_bytes} {}

bool Mcu::reserve_ram(std::size_t bytes) {
  if (reserved_ + bytes > available_ram_) return false;
  reserved_ += bytes;
  IOTSIM_CHECK_LE(reserved_, available_ram_, "mcu '%s' RAM budget exceeded", name().c_str());
  return true;
}

}  // namespace iotsim::hw
