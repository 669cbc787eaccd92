#include "hw/nic.h"

#include <utility>

#include "sim/simulator.h"

namespace iotsim::hw {

Nic::Nic(sim::Simulator& sim, energy::EnergyAccountant& acct, std::string name,
         energy::NicPowerSpec spec)
    : sim_{sim},
      name_{std::move(name)},
      spec_{spec},
      psm_{sim,
           acct,
           acct.register_component(name_),
           {{"idle", spec.idle_w, false},
            {"tx", spec.tx_w, true},
            {"rx", spec.rx_w, true},
            {"tail", spec.rx_w, false}},
           kIdle} {}

void Nic::attach_medium(net::Medium& medium, sim::Rng backoff_rng, std::size_t slot) {
  medium_ = &medium;
  attachment_ = medium.attach_at(slot, name_, backoff_rng, sim_);
}

const net::AirtimeStats* Nic::airtime_stats() const {
  return medium_ != nullptr ? &medium_->stats(attachment_) : nullptr;
}

sim::Duration Nic::wire_time(std::size_t bytes) const {
  return sim::Duration::from_seconds(static_cast<double>(bytes) / spec_.bytes_per_second);
}

void Nic::arm_tail(energy::Routine attr) {
  psm_.set(kTail, attr);
  const std::uint64_t generation = ++tail_generation_;
  sim_.after(spec_.tail, [this, generation] {
    // A newer burst supersedes this tail.
    if (generation == tail_generation_ && psm_.state() == kTail) {
      psm_.set(kIdle, energy::Routine::kIdle);
    }
  });
}

void Nic::enter_listen(energy::Routine attr) {
  // Idle-listen at tail power while contending for the channel. Bumping the
  // generation first invalidates any armed tail expiry, which would
  // otherwise see state == kTail mid-wait and flip the radio to idle.
  ++tail_generation_;
  psm_.set(kTail, attr);
}

sim::Task<void> Nic::burst(std::size_t bytes, energy::PowerStateMachine::StateId state,
                           energy::Routine attr) {
  co_await mutex_.acquire();
  sim::Duration air = wire_time(bytes);
  if (medium_ != nullptr) {
    // Only enter the listen state when a wait will actually happen — a
    // zero-length listen segment would pollute power traces and break
    // byte-identity for uncontended runs.
    const bool contended = !medium_->free_now();
    if (contended) enter_listen(attr);
    const net::Grant grant = co_await medium_->acquire(attachment_, bytes, air);
    if (!grant.granted) {
      if (contended) arm_tail(attr);  // the radio listened; give it a tail
      mutex_.release();
      co_return;
    }
    air = grant.airtime;
  }
  psm_.set(state, attr);
  co_await sim::Delay{air};
  arm_tail(attr);
  mutex_.release();
}

sim::Task<void> Nic::transmit(std::size_t bytes, energy::Routine attr) {
  return burst(bytes, kTx, attr);
}

sim::Task<void> Nic::receive(std::size_t bytes, energy::Routine attr) {
  return burst(bytes, kRx, attr);
}

}  // namespace iotsim::hw
