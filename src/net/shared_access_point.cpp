#include "net/shared_access_point.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "check/check.h"
#include "sim/simulator.h"

namespace iotsim::net {

SharedAccessPoint::SharedAccessPoint(sim::Simulator& sim, ApConfig cfg)
    : sim_{&sim}, cfg_{cfg}, next_free_{sim.now()}, last_grant_end_{sim.now()} {
  IOTSIM_CHECK(cfg_.bytes_per_second > 0.0, "SharedAccessPoint: bandwidth must be positive");
  IOTSIM_CHECK_GE(cfg_.queue_depth, 1, "SharedAccessPoint: queue depth must be >= 1");
  IOTSIM_CHECK(!cfg_.reservation_window.is_negative(),
               "SharedAccessPoint: reservation window must be >= 0");
  IOTSIM_CHECK(!cfg_.windowed(),
               "SharedAccessPoint: a windowed AP is kernel-less; use the ApConfig-only ctor");
}

SharedAccessPoint::SharedAccessPoint(ApConfig cfg)
    : sim_{nullptr}, cfg_{cfg}, next_free_{sim::SimTime::origin()},
      last_grant_end_{sim::SimTime::origin()} {
  IOTSIM_CHECK(cfg_.bytes_per_second > 0.0, "SharedAccessPoint: bandwidth must be positive");
  IOTSIM_CHECK_GE(cfg_.queue_depth, 1, "SharedAccessPoint: queue depth must be >= 1");
  IOTSIM_CHECK(cfg_.windowed(),
               "SharedAccessPoint: the kernel-less ctor requires window-quantum mode");
}

std::size_t SharedAccessPoint::attach(std::string name, sim::Rng backoff_rng) {
  std::lock_guard<std::mutex> lock{mutex_};
  attachments_.push_back(Attachment{std::move(name), backoff_rng, AirtimeStats{}, sim_, 0});
  return attachments_.size() - 1;
}

std::size_t SharedAccessPoint::attach_at(std::size_t slot, std::string name,
                                         sim::Rng backoff_rng, sim::Simulator& owner) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (slot >= attachments_.size()) attachments_.resize(slot + 1);
  Attachment& att = attachments_[slot];
  IOTSIM_CHECK(att.owner == nullptr && att.name.empty(),
               "SharedAccessPoint: slot %zu attached twice", slot);
  att.name = std::move(name);
  att.rng = backoff_rng;
  att.owner = &owner;
  return slot;
}

void SharedAccessPoint::reserve_attachments(std::size_t count) {
  std::lock_guard<std::mutex> lock{mutex_};
  if (attachments_.size() < count) attachments_.resize(count);
}

bool SharedAccessPoint::free_now() const {
  // Window-quantum mode: every burst waits for its boundary, so the channel
  // is never grab-it-now free — NICs deterministically enter idle-listen.
  if (cfg_.windowed()) return false;
  return sim_->now() >= next_free_;
}

sim::Duration SharedAccessPoint::airtime_for(std::size_t bytes, sim::Duration nic_wire) const {
  const sim::Duration uplink =
      sim::Duration::from_seconds(static_cast<double>(bytes) / cfg_.bytes_per_second);
  return std::max(nic_wire, uplink);
}

void SharedAccessPoint::record_grant(Attachment& att, sim::SimTime requested, sim::Duration air) {
  const sim::SimTime now = sim_->now();
  IOTSIM_CHECK_GE(now, last_grant_end_, "SharedAccessPoint: overlapping airtime grants (%s)",
                  att.name.c_str());
  last_grant_end_ = now + air;
  busy_airtime_ += air;
  att.stats.airtime_wait += now - requested;
  ++att.stats.grants;
}

sim::Task<Grant> SharedAccessPoint::acquire(std::size_t attachment, std::size_t bytes,
                                            sim::Duration nic_wire) {
  IOTSIM_CHECK_LT(attachment, attachments_.size(),
                  "SharedAccessPoint: acquire from unattached NIC");
  const sim::Duration air = airtime_for(bytes, nic_wire);
  if (cfg_.windowed()) return acquire_windowed(attachment, air);
  Attachment& att = attachments_[attachment];
  return cfg_.backoff == BackoffPolicy::kFifo ? acquire_fifo(att, air) : acquire_csma(att, air);
}

sim::Task<Grant> SharedAccessPoint::acquire_fifo(Attachment& att, sim::Duration air) {
  const sim::SimTime requested = sim_->now();
  const bool busy = requested < next_free_;
  if (busy && waiting_ >= cfg_.queue_depth) {
    ++att.stats.drops;
    co_return Grant{false, air};
  }
  // Reserve the start slot at admission: a later arrival sees next_free_
  // already pushed out, so same-timestamp races cannot steal a queued
  // waiter's slot.
  const sim::SimTime start = busy ? next_free_ : requested;
  next_free_ = start + air;
  if (busy) {
    ++waiting_;
    IOTSIM_CHECK_LE(waiting_, cfg_.queue_depth, "SharedAccessPoint: pending queue over bound");
    co_await sim::Delay{start - requested};
    --waiting_;
  }
  record_grant(att, requested, air);
  co_return Grant{true, air};
}

sim::Task<Grant> SharedAccessPoint::acquire_csma(Attachment& att, sim::Duration air) {
  const sim::SimTime requested = sim_->now();
  if (requested < next_free_) {
    if (waiting_ >= cfg_.queue_depth) {
      ++att.stats.drops;
      co_return Grant{false, air};
    }
    ++waiting_;
    IOTSIM_CHECK_LE(waiting_, cfg_.queue_depth, "SharedAccessPoint: pending queue over bound");
    int attempt = 0;
    while (sim_->now() < next_free_) {
      attempt = std::min(attempt + 1, cfg_.max_backoff_exponent);
      ++att.stats.retries;
      const std::int64_t slots = att.rng.uniform_int(1, std::int64_t{1} << attempt);
      co_await sim::Delay{cfg_.backoff_slot * slots};
    }
    --waiting_;
  }
  // Sensed free: seize the channel. Same-timestamp wakeups resume in
  // schedule order, so the first sensor wins and the rest re-sense busy.
  next_free_ = sim_->now() + air;
  record_grant(att, requested, air);
  co_return Grant{true, air};
}

void SharedAccessPoint::WindowAwait::await_suspend(std::coroutine_handle<> h) {
  req->waiter = h;
  std::lock_guard<std::mutex> lock{ap->mutex_};
  ap->pending_.push_back(req);
}

sim::Task<Grant> SharedAccessPoint::acquire_windowed(std::size_t slot, sim::Duration air) {
  PendingRequest req;
  {
    Attachment& att = attachments_[slot];
    IOTSIM_CHECK(att.owner != nullptr,
                 "SharedAccessPoint: windowed acquire from a slot with no owner kernel");
    req.requested = att.owner->now();
    req.slot = slot;
    req.seq = att.next_seq++;
    req.air = air;
    req.owner = att.owner;
  }
  co_await WindowAwait{this, &req};
  co_return Grant{req.granted, air};
}

void SharedAccessPoint::arbitrate_window(sim::SimTime boundary) {
  IOTSIM_CHECK(cfg_.windowed(), "SharedAccessPoint: arbitrate_window without a window");
  // The coupling contract: (request time, attachment slot, per-attachment
  // sequence) totally orders the batch regardless of the interleaving in
  // which shards registered the requests. The keys are copied out so the
  // sort runs over values, never over pointer identity.
  struct Claim {
    sim::SimTime requested;
    std::size_t slot;
    std::uint64_t seq;
    PendingRequest* req;
  };
  std::vector<Claim> batch;
  {
    std::lock_guard<std::mutex> lock{mutex_};
    auto it = pending_.begin();
    while (it != pending_.end()) {
      PendingRequest* r = *it;
      if (r->requested < boundary) {
        batch.push_back(Claim{r->requested, r->slot, r->seq, r});
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::sort(batch.begin(), batch.end(), [](const Claim& a, const Claim& b) {
    return std::tie(a.requested, a.slot, a.seq) < std::tie(b.requested, b.slot, b.seq);
  });
  for (const Claim& claim : batch) {
    PendingRequest* const req = claim.req;
    // Reservations that started at or before this request's arrival are no
    // longer "queued ahead" for the depth bound.
    while (!reserved_starts_.empty() && reserved_starts_.front() <= req->requested) {
      reserved_starts_.pop_front();
    }
    Attachment& att = attachments_[req->slot];
    if (static_cast<int>(reserved_starts_.size()) >= cfg_.queue_depth) {
      ++att.stats.drops;
      req->granted = false;
      req->owner->at(boundary, [h = req->waiter] { h.resume(); });
      continue;
    }
    const sim::SimTime start = std::max(boundary, next_free_);
    IOTSIM_CHECK_GE(start, last_grant_end_,
                    "SharedAccessPoint: overlapping airtime grants (%s)", att.name.c_str());
    next_free_ = start + req->air;
    last_grant_end_ = next_free_;
    reserved_starts_.push_back(start);
    IOTSIM_CHECK_LE(static_cast<int>(reserved_starts_.size()), cfg_.queue_depth,
                    "SharedAccessPoint: pending queue over bound");
    busy_airtime_ += req->air;
    att.stats.airtime_wait += start - req->requested;
    ++att.stats.grants;
    req->granted = true;
    req->owner->at(start, [h = req->waiter] { h.resume(); });
  }
}

std::size_t SharedAccessPoint::pending_requests() const {
  std::lock_guard<std::mutex> lock{mutex_};
  return pending_.size();
}

const AirtimeStats& SharedAccessPoint::stats(std::size_t attachment) const {
  IOTSIM_CHECK_LT(attachment, attachments_.size(),
                  "SharedAccessPoint: stats for unattached NIC");
  return attachments_[attachment].stats;
}

MediumStats SharedAccessPoint::stats() const {
  MediumStats out;
  out.kind = cfg_.windowed()
                 ? "shared-ap-windowed"
                 : (cfg_.backoff == BackoffPolicy::kFifo ? "shared-ap-fifo" : "shared-ap-csma");
  out.attachments = attachments_.size();
  for (const Attachment& att : attachments_) out.totals += att.stats;
  out.busy_airtime = busy_airtime_;
  out.pending = cfg_.windowed() ? static_cast<int>(pending_requests()) : waiting_;
  // The conservative sharding window: no queued burst can be granted before
  // the current reservation ends.
  out.next_free = next_free_;
  return out;
}

}  // namespace iotsim::net
