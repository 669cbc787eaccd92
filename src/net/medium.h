// Shared-medium abstraction: who may put bytes on the air, and when.
//
// Every hw::Nic transmits through a net::Medium. The medium arbitrates
// airtime: a NIC asks to send/receive a burst and the medium answers with a
// Grant — possibly after making the caller wait its turn. The default
// IdealMedium grants instantly (today's infinite-capacity ether, preserved
// byte-identically); SharedAccessPoint models a finite uplink with
// contention (see shared_access_point.h).
//
// Statistics go through one value-returning snapshot, Medium::stats() →
// MediumStats; utilization() is the one derived accessor computed from it.
//
// Determinism contract: acquire() may only suspend on kernel awaitables
// (Delay), and any randomness (CSMA backoff) must come from the sim::Rng
// handed over at attach() — derived from the hub seed, never from wall
// clock or a global source. An acquire() that grants instantly must
// co_return WITHOUT suspending, so an uncontended medium adds no event-queue
// round trip and no timing perturbation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/process.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace iotsim::sim {
class Simulator;
}  // namespace iotsim::sim

namespace iotsim::net {

/// Per-attachment contention counters, accumulated across a run.
struct AirtimeStats {
  sim::Duration airtime_wait;  ///< total time spent waiting for the channel
  std::uint64_t grants = 0;    ///< bursts granted airtime
  std::uint64_t retries = 0;   ///< CSMA re-sense attempts after a busy sense
  std::uint64_t drops = 0;     ///< bursts rejected because the queue was full

  AirtimeStats& operator+=(const AirtimeStats& o) {
    airtime_wait += o.airtime_wait;
    grants += o.grants;
    retries += o.retries;
    drops += o.drops;
    return *this;
  }
};

/// The medium's answer to an airtime request.
struct Grant {
  bool granted = false;   ///< false: queue full, the burst is dropped
  sim::Duration airtime;  ///< time the burst occupies the channel once started
};

/// One coherent snapshot of a medium's identity, counters, and channel
/// state — the single statistics surface for every Medium implementation.
/// `next_free` doubles as the fleet executor's coupling signal: an infinite
/// value means the medium never makes anyone wait, so hubs are independent.
struct MediumStats {
  std::string_view kind;  ///< "ideal" | "shared-ap-fifo" | "shared-ap-csma" | "shared-ap-windowed"
  std::size_t attachments = 0;  ///< NICs attached so far
  AirtimeStats totals;          ///< sum of per-attachment counters
  sim::Duration busy_airtime;   ///< total channel-occupied time (zero if ideal)
  int pending = 0;              ///< bursts currently waiting for the channel
  sim::SimTime next_free = sim::SimTime::origin();  ///< when the current reservation ends
};

/// Airtime arbiter shared by a fleet's NICs.
class Medium {
 public:
  Medium() = default;
  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;
  virtual ~Medium() = default;

  /// Registers a NIC; the returned handle indexes stats() and acquire().
  /// `backoff_rng` feeds randomized backoff — pass a seed-derived stream so
  /// results stay reproducible (see docs/architecture.md §11).
  virtual std::size_t attach(std::string name, sim::Rng backoff_rng) = 0;

  /// Slot-addressed attach for lazily/concurrently built fleets: hub `i`'s
  /// NICs claim slots 2i and 2i+1, so attachment handles are a function of
  /// the scenario rather than of construction interleaving (handles are an
  /// arbitration tie-break under windowed APs). `owner` is the simulator
  /// whose clock stamps this attachment's requests — the shard kernel under
  /// sharded execution. The default ignores the slot and appends, which is
  /// exactly right for per-shard media (IdealMedium) where construction is
  /// sequential within the shard.
  virtual std::size_t attach_at(std::size_t slot, std::string name, sim::Rng backoff_rng,
                                sim::Simulator& owner) {
    (void)slot;
    (void)owner;
    return attach(std::move(name), std::move(backoff_rng));
  }

  /// True if an acquire() issued now would grant without suspending. NICs
  /// use this to decide whether to enter the idle-listen state before
  /// waiting (a zero-length listen segment would pollute power traces).
  [[nodiscard]] virtual bool free_now() const = 0;

  /// Waits for the channel (if needed) and reserves it for one burst of
  /// `bytes` whose radio-limited duration is `nic_wire`. The returned
  /// airtime is at least `nic_wire` — a slow uplink stretches it.
  [[nodiscard]] virtual sim::Task<Grant> acquire(std::size_t attachment, std::size_t bytes,
                                                 sim::Duration nic_wire) = 0;

  /// Per-attachment counters.
  [[nodiscard]] virtual const AirtimeStats& stats(std::size_t attachment) const = 0;

  /// The whole medium's state and counters as one snapshot — the single
  /// statistics surface. utilization() derives from it.
  [[nodiscard]] virtual MediumStats stats() const = 0;

  /// Fraction of elapsed simulated time the channel carried a burst.
  [[nodiscard]] double utilization(sim::SimTime now) const;
};

/// Infinite-capacity ether: every burst is granted instantly at the NIC's
/// own wire speed. acquire() never suspends, so a run through IdealMedium
/// is byte-identical to one with no medium at all.
class IdealMedium final : public Medium {
 public:
  std::size_t attach(std::string name, sim::Rng backoff_rng) override;
  [[nodiscard]] bool free_now() const override { return true; }
  [[nodiscard]] sim::Task<Grant> acquire(std::size_t attachment, std::size_t bytes,
                                         sim::Duration nic_wire) override;
  [[nodiscard]] const AirtimeStats& stats(std::size_t attachment) const override;
  [[nodiscard]] MediumStats stats() const override;

 private:
  std::vector<AirtimeStats> stats_;
};

}  // namespace iotsim::net
