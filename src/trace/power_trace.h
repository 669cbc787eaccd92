// Ground-truth power waveform recorder — the simulated stand-in for the
// Monsoon power monitor used in the paper (§III-B). Because the simulator
// knows the exact piecewise-constant power of every component, the trace is
// exact: its integral over any span equals the energy ledger's.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "energy/energy_accountant.h"
#include "energy/power_state_machine.h"
#include "sim/sim_time.h"

namespace iotsim::cache {
class ResultCodec;  // the persistent result cache's binary codec
}

namespace iotsim::trace {

class PowerTrace {
 public:
  /// Starts recording segments flushed by `machine`; `name` labels the
  /// component in rendered timelines.
  void attach(energy::PowerStateMachine& machine, std::string name);

  [[nodiscard]] const std::vector<energy::PowerSegment>& segments() const { return segments_; }
  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }

  /// Power of one component at time `t` (0 outside the trace).
  [[nodiscard]] double component_watts_at(energy::ComponentId c, sim::SimTime t) const;

  /// Integrated energy over [begin, end) across all components.
  [[nodiscard]] double joules_between(sim::SimTime begin, sim::SimTime end) const;
  /// Integrated energy of a single component over [begin, end).
  [[nodiscard]] double component_joules_between(energy::ComponentId c, sim::SimTime begin,
                                                sim::SimTime end) const;

  /// Renders a Fig.-5-style per-component power-state timeline as ASCII.
  [[nodiscard]] std::string render_timeline(sim::SimTime begin, sim::SimTime end,
                                            std::size_t columns = 100) const;

  void clear() { segments_.clear(); component_names_.clear(); }

 private:
  /// The result cache reconstructs recorded traces segment-for-segment
  /// (cache/result_codec.cpp).
  friend class iotsim::cache::ResultCodec;

  std::vector<energy::PowerSegment> segments_;
  std::vector<std::pair<energy::ComponentId, std::string>> component_names_;
};

}  // namespace iotsim::trace
