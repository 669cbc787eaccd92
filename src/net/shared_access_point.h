// A finite-bandwidth shared uplink with airtime contention.
//
// All attached NICs funnel through one channel of ApConfig::bytes_per_second
// capacity. A burst's airtime is max(NIC wire time, bytes / AP bandwidth);
// while the channel is busy, later arrivals wait — FIFO (reserved start
// slots, back to back) or CSMA (randomized slotted re-sensing) — with a
// bounded pending queue beyond which bursts are dropped.
//
// Window-quantum mode (ApConfig::reservation_window > 0, FIFO only): the AP
// batches every airtime request made during a reservation window and
// arbitrates the batch at the window boundary in (request time, attachment,
// sequence) order — a total order that does not depend on the interleaving
// in which requests were registered. That is the coupling contract that lets
// a fleet of any shard count keep one shared AP. A windowed AP has no kernel
// of its own and one driver: the shard runner drains every shard kernel to
// each boundary kQ and then calls arbitrate_window(kQ) — on the barrier's
// completion step when sharded, inline for one shard. The event-driven
// FIFO/CSMA modes live on one simulator instead.
//
// Invariants (IOTSIM_CHECK, on in Debug or -DIOTSIM_CHECKS=ON):
//   * airtime grants never overlap — each grant starts at or after the
//     previous grant's end;
//   * the pending queue never exceeds ApConfig::queue_depth.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "net/config.h"
#include "net/medium.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/sim_time.h"

namespace iotsim::sim {
class Simulator;
}

namespace iotsim::net {

class SharedAccessPoint final : public Medium {
 public:
  /// Event-driven FIFO/CSMA AP: `sim` stamps request times and hosts the
  /// waits. Rejects a windowed config — that AP is kernel-less.
  SharedAccessPoint(sim::Simulator& sim, ApConfig cfg);
  /// Kernel-less windowed AP: request times come from each attachment's
  /// owner simulator (attach_at), and the driver must call arbitrate_window
  /// at every boundary. Requires a windowed config.
  explicit SharedAccessPoint(ApConfig cfg);

  std::size_t attach(std::string name, sim::Rng backoff_rng) override;
  std::size_t attach_at(std::size_t slot, std::string name, sim::Rng backoff_rng,
                        sim::Simulator& owner) override;
  [[nodiscard]] bool free_now() const override;
  [[nodiscard]] sim::Task<Grant> acquire(std::size_t attachment, std::size_t bytes,
                                         sim::Duration nic_wire) override;
  [[nodiscard]] const AirtimeStats& stats(std::size_t attachment) const override;
  [[nodiscard]] MediumStats stats() const override;

  /// Pre-sizes the slot table for attach_at so concurrent shard workers
  /// never reallocate it. Call once, before any hub is built.
  void reserve_attachments(std::size_t count);

  /// Window-quantum arbitration: grants/drops every request made strictly
  /// before `boundary`, in (request time, attachment, sequence) order, and
  /// schedules each waiter's resume on its owner kernel (grant start for
  /// grants, the boundary for drops). Thread-safe against registration; the
  /// shard runner calls it once every shard kernel has drained to
  /// `boundary` and is parked. Requests made exactly at `boundary` wait for
  /// the next window — boundary-time model events have already run by then.
  void arbitrate_window(sim::SimTime boundary);

  /// Requests registered and not yet arbitrated (windowed mode).
  [[nodiscard]] std::size_t pending_requests() const;

  [[nodiscard]] const ApConfig& config() const { return cfg_; }

 private:
  struct Attachment {
    std::string name;
    sim::Rng rng{0};
    AirtimeStats stats;
    sim::Simulator* owner = nullptr;  ///< stamps this NIC's request times
    std::uint64_t next_seq = 0;       ///< per-attachment arbitration tie-break
  };

  /// One suspended windowed acquire; lives in the acquire coroutine's frame
  /// and stays registered until arbitrate_window resolves it.
  struct PendingRequest {
    sim::SimTime requested;
    std::size_t slot = 0;
    std::uint64_t seq = 0;
    sim::Duration air;
    sim::Simulator* owner = nullptr;
    std::coroutine_handle<> waiter;
    bool granted = false;
  };

  /// Awaitable that parks a windowed acquire until its boundary: suspending
  /// registers the request for the next arbitrate_window.
  struct WindowAwait {
    SharedAccessPoint* ap;
    PendingRequest* req;
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
  };

  /// Airtime for `bytes`: the slower of the radio and the AP uplink.
  [[nodiscard]] sim::Duration airtime_for(std::size_t bytes, sim::Duration nic_wire) const;
  /// Books a granted burst starting now: overlap invariant + accounting.
  void record_grant(Attachment& att, sim::SimTime requested, sim::Duration air);

  [[nodiscard]] sim::Task<Grant> acquire_fifo(Attachment& att, sim::Duration air);
  [[nodiscard]] sim::Task<Grant> acquire_csma(Attachment& att, sim::Duration air);
  [[nodiscard]] sim::Task<Grant> acquire_windowed(std::size_t slot, sim::Duration air);

  sim::Simulator* sim_;  ///< null for the kernel-less windowed ctor
  ApConfig cfg_;
  std::vector<Attachment> attachments_;
  sim::SimTime next_free_;       ///< when the channel's last reservation ends
  sim::SimTime last_grant_end_;  ///< overlap-invariant watermark
  int waiting_ = 0;              ///< bursts queued for the channel (event-driven FIFO/CSMA)
  sim::Duration busy_airtime_;   ///< total channel-occupied time (utilization)

  // Window-quantum state. The mutex guards pending_ and the slot table
  // during concurrent shard construction/registration; arbitration itself
  // runs with every shard parked, so the channel bookkeeping above needs no
  // lock.
  mutable std::mutex mutex_;
  std::deque<PendingRequest*> pending_;
  /// Start times of granted, not-yet-started reservations (ascending): the
  /// windowed queue-depth bound counts the entries a new request would queue
  /// behind.
  std::deque<sim::SimTime> reserved_starts_;
};

}  // namespace iotsim::net
