// Per-component, per-routine energy ledger.
//
// Power state machines flush piecewise-constant segments here. The ledger
// maintains the paper's accounting invariant (property-tested):
//     Σ_routine energy(component, routine) == ∫ P_component dt
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "energy/routine.h"
#include "sim/sim_time.h"

namespace iotsim::energy {

using ComponentId = std::size_t;

/// One piecewise-constant power segment, as flushed by a state machine.
struct PowerSegment {
  ComponentId component;
  Routine routine;
  sim::SimTime begin;
  sim::SimTime end;
  double watts;

  [[nodiscard]] double joules() const { return watts * (end - begin).to_seconds(); }
};

class EnergyAccountant {
 public:
  ComponentId register_component(std::string name);

  [[nodiscard]] std::size_t component_count() const { return names_.size(); }
  [[nodiscard]] const std::string& component_name(ComponentId id) const { return names_.at(id); }

  /// Integrates one segment into the ledger.
  void add(const PowerSegment& seg);

  /// Joules attributed to (component, routine).
  [[nodiscard]] double joules(ComponentId c, Routine r) const;
  /// Joules for a component across all routines.
  [[nodiscard]] double component_joules(ComponentId c) const;
  /// Joules for a routine across all components.
  [[nodiscard]] double routine_joules(Routine r) const;
  /// Grand total.
  [[nodiscard]] double total_joules() const;

  /// Verifies the ledger invariant (Σ over components == Σ over routines,
  /// every component total non-negative) via IOTSIM_CHECK. No-cost when
  /// checks are disabled.
  void check_conservation() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::array<double, kRoutineCount>> ledger_;  // joules [component][routine]
};

}  // namespace iotsim::energy
