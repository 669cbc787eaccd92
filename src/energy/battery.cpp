#include "energy/battery.h"

#include <algorithm>

#include "check/check.h"

namespace iotsim::energy {

Battery::Battery(double capacity_wh, double usable_fraction)
    : capacity_j_{capacity_wh * 3600.0}, usable_fraction_{usable_fraction} {
  IOTSIM_CHECK_GT(capacity_wh, 0.0, "battery capacity must be positive");
  IOTSIM_CHECK(usable_fraction > 0.0 && usable_fraction <= 1.0,
               "usable_fraction %.3f outside (0, 1]", usable_fraction);
}

double Battery::state_of_charge() const {
  const double soc = std::max(0.0, 1.0 - drained_j_ / usable_joules());
  IOTSIM_CHECK(soc >= 0.0 && soc <= 1.0, "state of charge %.6f outside [0, 1] (drained %.3f J)",
               soc, drained_j_);
  return soc;
}

double Battery::stored_joules() const { return std::max(0.0, usable_joules() - drained_j_); }

double Battery::drain_clamped(double joules) {
  IOTSIM_CHECK_GE(joules, 0.0, "cannot drain a negative amount (charge goes through recharge())");
  const double drained = std::min(joules, stored_joules());
  drained_j_ += drained;
  return drained;
}

double Battery::recharge(double joules) {
  IOTSIM_CHECK_GE(joules, 0.0, "cannot recharge a negative amount");
  const double stored = std::min(joules, drained_j_);
  drained_j_ -= stored;
  return stored;
}

sim::Duration Battery::lifetime(double watts) const {
  if (watts <= 0.0) return sim::Duration::max();  // never depletes
  return sim::Duration::from_seconds(usable_joules() / watts);
}

}  // namespace iotsim::energy
