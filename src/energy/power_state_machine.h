// Generic power-state machine with routine attribution.
//
// A hardware component owns one of these; every set_state/set call
// flushes the elapsed piecewise-constant segment into the EnergyAccountant
// and to any registered listeners (e.g. trace::PowerTrace).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "energy/energy_accountant.h"
#include "energy/routine.h"
#include "sim/sim_time.h"

namespace iotsim::sim {
class Simulator;
}

namespace iotsim::energy {

struct PowerState {
  std::string name;
  double watts = 0.0;
  /// Active work (enters busy-time accounting) vs. waiting/sleeping.
  bool busy_work = false;
};

/// Optional legality constraint for state changes. Owners that know their
/// hardware's wake discipline (e.g. hw::Processor: sleep→busy must pass
/// through the wake transition) declare it here; the machine then rejects
/// illegal jumps via IOTSIM_CHECK.
class TransitionTable {
 public:
  /// `n` states, no transition legal until `allow`ed.
  explicit TransitionTable(std::size_t n) : n_{n}, legal_(n * n, 0) {}

  TransitionTable& allow(std::size_t from, std::size_t to) {
    legal_.at(from * n_ + to) = 1;
    return *this;
  }

  [[nodiscard]] bool legal(std::size_t from, std::size_t to) const {
    return legal_.at(from * n_ + to) != 0;
  }

  [[nodiscard]] std::size_t state_count() const { return n_; }

 private:
  std::size_t n_;
  std::vector<char> legal_;  // row-major [from][to]
};

class PowerStateMachine {
 public:
  using StateId = std::size_t;
  using Listener = std::function<void(const PowerSegment&)>;

  PowerStateMachine(sim::Simulator& sim, EnergyAccountant& acct, ComponentId component,
                    std::vector<PowerState> states, StateId initial,
                    Routine initial_routine = Routine::kIdle);

  [[nodiscard]] StateId state() const { return state_; }
  [[nodiscard]] Routine routine() const { return routine_; }
  [[nodiscard]] ComponentId component() const { return component_; }

  /// Changes power state, closing the current segment.
  void set_state(StateId s);
  void set(StateId s, Routine r);

  /// Integrates the open segment up to now (call at end of simulation).
  void flush();

  void add_listener(Listener l) { listeners_.push_back(std::move(l)); }

  /// Installs the legal-transition table; subsequent state changes are
  /// validated against it (only when invariant checks are compiled in).
  void set_transition_table(TransitionTable table);

 private:
  void close_segment();
  /// IOTSIM_CHECKs that `to` is in range and, if a table is installed,
  /// that state_ → to is a declared-legal transition.
  void check_transition(StateId to) const;

  sim::Simulator& sim_;
  EnergyAccountant& acct_;
  ComponentId component_;
  std::vector<PowerState> states_;
  StateId state_;
  Routine routine_;
  sim::SimTime since_;
  std::vector<Listener> listeners_;
  std::optional<TransitionTable> transitions_;
};

}  // namespace iotsim::energy
