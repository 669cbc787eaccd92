#include "energy/power_state_machine.h"

#include <utility>

#include "check/check.h"
#include "sim/simulator.h"

namespace iotsim::energy {

PowerStateMachine::PowerStateMachine(sim::Simulator& sim, EnergyAccountant& acct,
                                     ComponentId component, std::vector<PowerState> states,
                                     StateId initial, Routine initial_routine)
    : sim_{sim},
      acct_{acct},
      component_{component},
      states_{std::move(states)},
      state_{initial},
      routine_{initial_routine},
      since_{sim.now()} {
  IOTSIM_CHECK(!states_.empty(), "power state machine needs at least one state");
  IOTSIM_CHECK_LT(initial, states_.size(), "component '%s': initial state out of range",
                  acct_.component_name(component_).c_str());
}

void PowerStateMachine::set_transition_table(TransitionTable table) {
  IOTSIM_CHECK_EQ(table.state_count(), states_.size(),
                  "component '%s': transition table size mismatch",
                  acct_.component_name(component_).c_str());
  transitions_ = std::move(table);
}

void PowerStateMachine::check_transition(StateId to) const {
  IOTSIM_CHECK_LT(to, states_.size(), "component '%s': state out of range at t=%s",
                  acct_.component_name(component_).c_str(), sim_.now().to_string().c_str());
  if (transitions_.has_value() && to != state_) {
    IOTSIM_CHECK(transitions_->legal(state_, to),
                 "component '%s': illegal power transition %s -> %s at t=%s",
                 acct_.component_name(component_).c_str(), states_[state_].name.c_str(),
                 states_[to].name.c_str(), sim_.now().to_string().c_str());
  }
}

void PowerStateMachine::close_segment() {
  const sim::SimTime now = sim_.now();
  IOTSIM_CHECK_GE(now, since_, "component '%s': segment would run backwards",
                  acct_.component_name(component_).c_str());
  if (now > since_) {
    const PowerSegment seg{component_, routine_, since_, now, states_[state_].watts};
    acct_.add(seg);
    for (auto& l : listeners_) l(seg);
  }
  since_ = now;
}

void PowerStateMachine::set_state(StateId s) {
  if (s == state_) return;
  check_transition(s);
  close_segment();
  state_ = s;
}

void PowerStateMachine::set(StateId s, Routine r) {
  if (s == state_ && r == routine_) return;
  check_transition(s);
  close_segment();
  state_ = s;
  routine_ = r;
}

void PowerStateMachine::flush() { close_segment(); }

}  // namespace iotsim::energy
