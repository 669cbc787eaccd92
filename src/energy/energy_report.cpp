#include "energy/energy_report.h"

#include <cmath>

#include "check/check.h"

namespace iotsim::energy {

/// Accumulates the ledger's components [begin, end) (in registration order)
/// into `r`. This loop body — and its iteration order — IS the fleet
/// float-summation contract: from_accountants() replays it per shard ledger
/// so sharded runs reproduce a shared ledger's sums bit for bit.
void EnergyReport::accumulate(EnergyReport& r, const EnergyAccountant& acct, ComponentId begin,
                              ComponentId end) {
  for (ComponentId c = begin; c < end; ++c) {
    const std::string& name = acct.component_name(c);
    auto& row = r.component_j_[name];
    for (Routine rt : kAllRoutines) {
      const double j = acct.joules(c, rt);
      IOTSIM_CHECK_GE(j, 0.0, "negative ledger cell for component '%s'", name.c_str());
      row[index_of(rt)] += j;
      r.routine_j_[index_of(rt)] += j;
    }
  }
}

EnergyReport EnergyReport::from_accountant(const EnergyAccountant& acct, sim::Duration elapsed) {
  EnergyReport r;
  r.elapsed_ = elapsed;
  accumulate(r, acct, 0, acct.component_count());
  // Conservation: a whole-ledger snapshot carries exactly the ledger's total.
  const double total = r.total_joules();
  const double ledger = acct.total_joules();
  const double tol = 1e-9 * (std::abs(ledger) > 1.0 ? std::abs(ledger) : 1.0);
  IOTSIM_CHECK_LE(std::abs(total - ledger), tol,
                  "report total %.12g J diverges from ledger total %.12g J", total, ledger);
  return r;
}

EnergyReport EnergyReport::from_accountant(const EnergyAccountant& acct, sim::Duration elapsed,
                                           ComponentId begin, ComponentId end) {
  IOTSIM_CHECK(begin <= end && end <= acct.component_count(),
               "ledger slice [%zu, %zu) outside %zu components", begin, end,
               acct.component_count());
  EnergyReport r;
  r.elapsed_ = elapsed;
  accumulate(r, acct, begin, end);
#if IOTSIM_CHECKS_ENABLED
  // Conservation: a slice can only carry a subset of the ledger's total.
  // Summing the whole ledger costs O(components) per slice, so only builds
  // with checks on pay it.
  const double total = r.total_joules();
  const double ledger = acct.total_joules();
  const double tol = 1e-9 * (std::abs(ledger) > 1.0 ? std::abs(ledger) : 1.0);
  IOTSIM_CHECK_LE(total, ledger + tol,
                  "slice [%zu, %zu) reports %.12g J, more than ledger %.12g J", begin, end, total,
                  ledger);
#endif
  return r;
}

EnergyReport EnergyReport::from_accountants(const std::vector<const EnergyAccountant*>& accts,
                                            sim::Duration elapsed) {
  EnergyReport r;
  r.elapsed_ = elapsed;
  double ledger = 0.0;
  for (const EnergyAccountant* acct : accts) {
    accumulate(r, *acct, 0, acct->component_count());
    ledger += acct->total_joules();
  }
  const double total = r.total_joules();
  const double tol = 1e-9 * (std::abs(ledger) > 1.0 ? std::abs(ledger) : 1.0);
  IOTSIM_CHECK_LE(std::abs(total - ledger), tol,
                  "merged report total %.12g J diverges from %zu ledgers' total %.12g J", total,
                  accts.size(), ledger);
  return r;
}

double EnergyReport::total_joules() const {
  double t = 0.0;
  for (double j : routine_j_) t += j;
  return t;
}

double EnergyReport::average_watts() const {
  const double s = elapsed_.to_seconds();
  return s > 0.0 ? total_joules() / s : 0.0;
}

double EnergyReport::paper_joules(Routine r) const {
  double j = routine_j_[index_of(r)];
  if (r == Routine::kComputation) j += routine_j_[index_of(Routine::kNetwork)];
  return j;
}

double EnergyReport::paper_fraction(Routine r) const {
  const double total = total_joules();
  return total > 0.0 ? paper_joules(r) / total : 0.0;
}

double EnergyReport::savings_vs(const EnergyReport& baseline) const {
  const double base = baseline.total_joules();
  IOTSIM_CHECK_GT(base, 0.0, "savings against a zero-energy baseline are undefined");
  return 1.0 - total_joules() / base;
}

double EnergyReport::normalized_to(const EnergyReport& baseline) const {
  const double base = baseline.total_joules();
  IOTSIM_CHECK_GT(base, 0.0, "normalizing to a zero-energy baseline is undefined");
  return total_joules() / base;
}

}  // namespace iotsim::energy
