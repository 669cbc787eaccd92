// Aggregated results of a scenario run, in the shape the paper reports:
// energy per routine (Figs. 3, 7, 9–12) and normalisation/savings helpers.
// Fig. 8's timing comes from core::AppResult::busy_per_window instead.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "energy/energy_accountant.h"
#include "energy/routine.h"
#include "sim/sim_time.h"

namespace iotsim::cache {
class ResultCodec;  // the persistent result cache's binary codec
}

namespace iotsim::energy {

/// Fleet-level view of the shared uplink's contention during a run (set by
/// the scenario runner from net::Medium totals; zeroed/unmodeled when the
/// scenario transmits into the ideal infinite-capacity medium).
struct CongestionSummary {
  /// True when a finite-bandwidth shared access point was configured.
  bool modeled = false;
  /// Fraction of the simulated span the channel carried a burst.
  double utilization = 0.0;
  /// Total time NICs spent waiting for airtime, summed over the fleet.
  sim::Duration airtime_wait;
  std::uint64_t grants = 0;   ///< bursts granted airtime
  std::uint64_t retries = 0;  ///< CSMA re-sense attempts
  std::uint64_t drops = 0;    ///< bursts rejected (pending queue full)
};

/// Fleet-level roll-up of the environment layer's availability outcome
/// (set by the scenario runner from per-hub env::AvailabilityStats; zeroed
/// and unmodeled when no hub carries an EnvironmentConfig). The runner
/// re-derives the same sums from the per-hub HubResult sections and
/// IOTSIM_CHECKs they reassemble to these totals.
struct AvailabilitySummary {
  bool modeled = false;          ///< at least one hub has an environment
  std::uint64_t hubs_modeled = 0;
  std::uint64_t reboots = 0;
  std::uint64_t windows_lost = 0;
  std::uint64_t samples_lost_faults = 0;
  std::uint64_t samples_lost_outage = 0;
  std::uint64_t samples_lost_crash = 0;
  sim::Duration downtime;        ///< summed over hubs
  double harvested_j = 0.0;
  double billed_j = 0.0;
  /// Fleet energy-neutral-operation margin: harvested / billed (0 when
  /// nothing was billed from a finite source).
  [[nodiscard]] double energy_neutral_margin() const {
    return billed_j > 0.0 ? harvested_j / billed_j : 0.0;
  }
};

/// How the kernel executed a run (set by the scenario runner from
/// Simulator::stats()). `events_dispatched` is deterministic — equal for a
/// single-thread run and any sharding of it, since sharding partitions the
/// same event set. The rest describes execution shape: peak depth splits
/// across shards, and scheduler/shards depend on how the run was launched.
struct KernelSummary {
  std::uint64_t events_dispatched = 0;
  std::size_t peak_queue_depth = 0;  ///< max over kernels
  std::string scheduler;             ///< sim::to_string(SchedulerKind) of kernel 0
  int shards = 1;                    ///< effective shard (worker thread) count
};

class EnergyReport {
 public:
  EnergyReport() = default;

  /// Snapshots the accountant's ledger. `elapsed` is the simulated span the
  /// ledger covers.
  static EnergyReport from_accountant(const EnergyAccountant& acct, sim::Duration elapsed);

  /// Snapshots only the components [begin, end) — one hub's slice of a
  /// fleet run's shared ledger, which its components register contiguously.
  /// The accounting invariant (Σ routine == Σ component == ∫P dt) holds per
  /// slice by construction.
  static EnergyReport from_accountant(const EnergyAccountant& acct, sim::Duration elapsed,
                                      ComponentId begin, ComponentId end);

  /// Snapshots several ledgers as one fleet report, iterating the ledgers
  /// in the order given. When shard s holds the fleet's hubs
  /// [s·n/S, (s+1)·n/S) this visits components in exactly the order a
  /// single shared ledger would have registered them, so the floating-point
  /// sums are bit-identical to a single-thread run's.
  static EnergyReport from_accountants(const std::vector<const EnergyAccountant*>& accts,
                                       sim::Duration elapsed);

  [[nodiscard]] double joules(Routine r) const { return routine_j_[index_of(r)]; }
  [[nodiscard]] double total_joules() const;
  [[nodiscard]] double average_watts() const;

  [[nodiscard]] const std::map<std::string, std::array<double, kRoutineCount>>& by_component()
      const {
    return component_j_;
  }

  /// Fraction of total energy in routine `r`, folding Network into
  /// Computation the way the paper's four-routine figures do.
  [[nodiscard]] double paper_fraction(Routine r) const;
  /// Energy in routine `r` under the paper's four-routine folding.
  [[nodiscard]] double paper_joules(Routine r) const;

  /// 1 − total/baseline.total: the paper's "% energy savings".
  [[nodiscard]] double savings_vs(const EnergyReport& baseline) const;
  /// total normalised to the baseline's total (bar height in Figs. 9–12).
  [[nodiscard]] double normalized_to(const EnergyReport& baseline) const;

  /// Shared-uplink contention for the span this report covers (fleet-level
  /// reports only; per-hub slices leave it unmodeled).
  [[nodiscard]] const CongestionSummary& congestion() const { return congestion_; }
  void set_congestion(const CongestionSummary& c) { congestion_ = c; }

  /// Kernel execution counters for the run this report covers (fleet-level
  /// reports only; per-hub slices leave it default).
  [[nodiscard]] const KernelSummary& kernel() const { return kernel_; }
  void set_kernel(KernelSummary k) { kernel_ = std::move(k); }

  /// Environment-layer availability roll-up (fleet-level reports only;
  /// per-hub slices leave it unmodeled).
  [[nodiscard]] const AvailabilitySummary& availability() const { return availability_; }
  void set_availability(const AvailabilitySummary& a) { availability_ = a; }

 private:
  /// The result cache serialises reports bit-identically, including state
  /// no public mutator exposes (cache/result_codec.cpp).
  friend class iotsim::cache::ResultCodec;

  /// Shared ledger-walk of from_accountant / from_accountants over the
  /// components [begin, end); its iteration order is the fleet
  /// float-summation contract.
  static void accumulate(EnergyReport& r, const EnergyAccountant& acct, ComponentId begin,
                         ComponentId end);

  std::array<double, kRoutineCount> routine_j_{};
  std::map<std::string, std::array<double, kRoutineCount>> component_j_;
  sim::Duration elapsed_ = sim::Duration::zero();
  CongestionSummary congestion_;
  KernelSummary kernel_;
  AvailabilitySummary availability_;
};

}  // namespace iotsim::energy
