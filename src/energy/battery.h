// A small battery model for lifetime projections — what the paper's energy
// savings mean for a deployed, battery-powered hub.
#pragma once

#include "energy/energy_report.h"
#include "sim/sim_time.h"

namespace iotsim::energy {

class Battery {
 public:
  /// `capacity_wh` — nameplate energy; `usable_fraction` — depth-of-
  /// discharge limit (Li-ion packs are rarely run to zero).
  explicit Battery(double capacity_wh, double usable_fraction = 0.9);

  [[nodiscard]] double usable_joules() const { return usable_j_; }
  [[nodiscard]] double state_of_charge() const;
  [[nodiscard]] bool depleted() const { return drained_j_ >= usable_j_; }

  // --- online semantics (env::PowerSource drives these during a run) ---

  /// Remaining stored usable energy right now.
  [[nodiscard]] double stored_joules() const;
  /// Drains at most the stored energy (the online floor: a browned-out hub
  /// cannot pull charge that is not there). Returns the joules actually
  /// drained.
  double drain_clamped(double joules);
  /// Partial recharge (harvesting): stores at most up to full usable
  /// capacity. Returns the joules actually stored.
  double recharge(double joules);

  /// Full-charge lifetime at a constant draw. A non-positive draw never
  /// depletes the battery: Duration::max().
  [[nodiscard]] sim::Duration lifetime(double watts) const;
  /// Full-charge lifetime at a scenario's average power.
  [[nodiscard]] sim::Duration lifetime(const EnergyReport& report) const {
    return lifetime(report.average_watts());
  }

 private:
  /// Computed once, so that stored_joules() subtracts without a multiply
  /// an FMA target could fuse into it: a drained battery then stores
  /// exactly 0 J on every target.
  double usable_j_;
  double drained_j_ = 0.0;
};

}  // namespace iotsim::energy
