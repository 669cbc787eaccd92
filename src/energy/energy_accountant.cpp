#include "energy/energy_accountant.h"

#include <cmath>

#include "check/check.h"

namespace iotsim::energy {

ComponentId EnergyAccountant::register_component(std::string name) {
#if IOTSIM_CHECKS_ENABLED
  // Component names key the prefix-filtered per-hub reports; a duplicate
  // (e.g. two hubs registered under the same scope) silently merges two
  // ledgers. Registration is rare and components are few, so a linear
  // scan is fine.
  for (const std::string& existing : names_) {
    IOTSIM_CHECK(existing != name, "duplicate component name '%s' (hub scope collision?)",
                 name.c_str());
  }
#endif
  names_.push_back(std::move(name));
  ledger_.emplace_back();
  return names_.size() - 1;
}

void EnergyAccountant::add(const PowerSegment& seg) {
  IOTSIM_CHECK_LT(seg.component, ledger_.size(), "segment books to unregistered component");
  IOTSIM_CHECK_GE(seg.end, seg.begin, "segment for '%s' runs backwards",
                  names_[seg.component].c_str());
  IOTSIM_CHECK_GE(seg.watts, 0.0, "negative power for '%s' over [%s, %s]",
                  names_[seg.component].c_str(), seg.begin.to_string().c_str(),
                  seg.end.to_string().c_str());
  ledger_[seg.component][index_of(seg.routine)] += seg.joules();
}

double EnergyAccountant::joules(ComponentId c, Routine r) const {
  return ledger_.at(c)[index_of(r)];
}

double EnergyAccountant::component_joules(ComponentId c) const {
  double total = 0.0;
  for (const double joules : ledger_.at(c)) total += joules;
  return total;
}

double EnergyAccountant::routine_joules(Routine r) const {
  double total = 0.0;
  for (const auto& row : ledger_) total += row[index_of(r)];
  return total;
}

double EnergyAccountant::total_joules() const {
  double total = 0.0;
  for (std::size_t c = 0; c < ledger_.size(); ++c) total += component_joules(c);
  return total;
}

void EnergyAccountant::check_conservation() const {
  // The ledger is a (component × routine) matrix; summing rows-first and
  // columns-first must agree (up to summation-order rounding), and no cell
  // may have gone negative. Cheap — callers run it once per scenario.
  const double by_component = total_joules();
  double by_routine = 0.0;
  for (Routine r : kAllRoutines) by_routine += routine_joules(r);
  const double tol = 1e-9 * std::max(1.0, std::abs(by_component));
  IOTSIM_CHECK_LE(std::abs(by_component - by_routine), tol,
                  "ledger conservation broken: Σ_component=%.12g vs Σ_routine=%.12g",
                  by_component, by_routine);
  for (std::size_t c = 0; c < ledger_.size(); ++c) {
    IOTSIM_CHECK_GE(component_joules(c), 0.0, "component '%s' drained negative energy",
                    names_[c].c_str());
  }
}

}  // namespace iotsim::energy
