#include "hw/bus.h"

#include <utility>

#include "sim/simulator.h"

namespace iotsim::hw {

Bus::Bus(sim::Simulator& sim, energy::EnergyAccountant& acct, std::string name,
         energy::BusPowerSpec spec)
    : name_{std::move(name)},
      psm_{sim,
           acct,
           acct.register_component(name_),
           {{"idle", spec.idle_w}, {"active", spec.active_w}},
           kIdle} {}

sim::Task<void> Bus::occupy(sim::Duration d, energy::Routine attr) {
  co_await mutex_.acquire();
  psm_.set(kActive, attr);
  co_await sim::Delay{d};
  psm_.set(kIdle, energy::Routine::kIdle);
  mutex_.release();
}

}  // namespace iotsim::hw
