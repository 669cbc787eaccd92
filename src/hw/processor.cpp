#include "hw/processor.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/simulator.h"

namespace iotsim::hw {

namespace {

/// Idle-attribution precedence when several apps wait concurrently.
constexpr energy::Routine kAttrPrecedence[] = {
    energy::Routine::kComputation, energy::Routine::kDataTransfer, energy::Routine::kNetwork,
    energy::Routine::kDataCollection, energy::Routine::kInterrupt,
};

}  // namespace

Processor::Processor(sim::Simulator& sim, energy::EnergyAccountant& acct, std::string name,
                     ProcessorSpec spec)
    : sim_{sim},
      name_{std::move(name)},
      spec_{std::move(spec)},
      psm_{sim, acct, acct.register_component(name_), build_states(),
           // Start as deep asleep as the spec allows: an idle hub sleeps.
           spec_.sleep_modes.empty() ? kWait : kFirstSleep + spec_.sleep_modes.size() - 1} {
  psm_.set_transition_table(build_transition_table());
  for (std::size_t i = 0; i < breakevens_.size() && i < spec_.sleep_modes.size(); ++i) {
    breakevens_[i] = spec_.sleep_modes[i].breakeven(spec_.active_w);
  }
}

energy::TransitionTable Processor::build_transition_table() const {
  // The wake discipline in state-machine form: leaving a sleep state costs
  // a transition (unless the sleep was a zero-duration transient, which
  // exits to wait), and busy is only ever entered from wait — sleep→busy
  // without paying the wake latency is the bug class this table catches.
  const std::size_t n = kFirstSleep + spec_.sleep_modes.size();
  energy::TransitionTable t{n};
  t.allow(kBusy, kWait);
  t.allow(kWait, kBusy);
  t.allow(kTransition, kWait);
  for (std::size_t i = kFirstSleep; i < n; ++i) {
    t.allow(kBusy, i);   // post-execute idle drop (entering sleep is free)
    t.allow(kWait, i);   // idle drop from active wait
    t.allow(i, kTransition);  // paid wake-up
    t.allow(i, kWait);        // zero-duration sleep transient
    for (std::size_t j = kFirstSleep; j < n; ++j) {
      if (i != j) t.allow(i, j);  // waiter-driven depth re-pick
    }
  }
  return t;
}

std::vector<energy::PowerState> Processor::build_states() const {
  std::vector<energy::PowerState> states;
  const double busy_w = spec_.busy_w > 0.0 ? spec_.busy_w : spec_.active_w;
  states.push_back({"busy", busy_w});
  states.push_back({"wait", spec_.active_w});
  double transition_w = spec_.active_w;
  if (!spec_.sleep_modes.empty()) {
    transition_w = spec_.sleep_modes.front().transition_w;
    for (const auto& m : spec_.sleep_modes) transition_w = std::max(transition_w, m.transition_w);
  }
  states.push_back({"transition", transition_w});
  for (std::size_t i = 0; i < spec_.sleep_modes.size(); ++i) {
    states.push_back({"sleep" + std::to_string(i), spec_.sleep_modes[i].watts});
  }
  return states;
}

bool Processor::asleep() const { return psm_.state() >= kFirstSleep; }

Processor::WaitReg Processor::add_waiter(SleepPolicy policy, energy::Routine attr) {
  ++waiters_by_policy_[static_cast<std::size_t>(policy)];
  ++waiters_by_attr_[static_cast<std::size_t>(attr)];
  return WaitReg{policy, attr};
}

void Processor::remove_waiter(WaitReg reg) {
  --waiters_by_policy_[static_cast<std::size_t>(reg.policy)];
  --waiters_by_attr_[static_cast<std::size_t>(reg.attr)];
  assert(waiters_by_policy_[static_cast<std::size_t>(reg.policy)] >= 0);
}

void Processor::refresh_idle_state() {
  if (busy_depth_ > 0 || waking_) return;

  // Work is already queued behind the exec mutex (it resumes at this same
  // timestamp) — dropping into sleep would charge a spurious wake.
  if (exec_mutex_.queue_length() > 0) {
    psm_.set_state(kWait);
    return;
  }

  // The shallowest policy any waiter holds; none left means no waiters.
  std::size_t allowed = 0;
  while (allowed < waiters_by_policy_.size() && waiters_by_policy_[allowed] == 0) ++allowed;

  if (allowed == waiters_by_policy_.size()) {
    // Nothing scheduled at all: the hub idles in the deepest available mode.
    if (spec_.sleep_modes.empty()) {
      psm_.set(kWait, energy::Routine::kIdle);
    } else {
      enter_sleep(kFirstSleep + spec_.sleep_modes.size() - 1, energy::Routine::kIdle);
    }
    return;
  }

  energy::Routine attr = energy::Routine::kIdle;
  for (energy::Routine candidate : kAttrPrecedence) {
    if (waiters_by_attr_[static_cast<std::size_t>(candidate)] > 0) {
      attr = candidate;
      break;
    }
  }

  const auto depth = std::min<std::size_t>(allowed, spec_.sleep_modes.size());
  if (depth == 0) {
    psm_.set(kWait, attr);
  } else {
    enter_sleep(kFirstSleep + depth - 1, attr);
  }
}

void Processor::enter_sleep(energy::PowerStateMachine::StateId state, energy::Routine attr) {
  if (!asleep()) sleep_entered_at_ = sim_.now();
  psm_.set(state, attr);
}

sim::Task<void> Processor::wake_if_sleeping(energy::Routine attr) {
  if (!asleep()) co_return;
  if (sleep_entered_at_ == sim_.now()) {
    // Zero-duration sleep: the machine never really powered down.
    psm_.set(kWait, attr);
    co_return;
  }
  const std::size_t mode = psm_.state() - kFirstSleep;
  waking_ = true;
  psm_.set(kTransition, attr);
  co_await sim::Delay{spec_.sleep_modes[mode].wake_latency};
  waking_ = false;
  ++wakeups_;
  psm_.set(kWait, attr);
}

sim::Task<void> Processor::execute(sim::Duration d, energy::Routine attr) {
  co_await exec_mutex_.acquire();
  co_await wake_if_sleeping(attr);
  ++busy_depth_;
  psm_.set(kBusy, attr);
  co_await sim::Delay{d};
  --busy_depth_;
  refresh_idle_state();
  exec_mutex_.release();
}

SleepPolicy Processor::policy_for_gap(sim::Duration gap, SleepPolicy max_policy) const {
  auto effective = SleepPolicy::kBusyWait;
  const auto limit = std::min<std::size_t>(static_cast<std::size_t>(max_policy),
                                           spec_.sleep_modes.size());
  for (std::size_t i = 0; i < limit; ++i) {
    if (gap >= breakevens_[i]) {
      effective = static_cast<SleepPolicy>(i + 1);
    }
  }
  return effective;
}

sim::Task<void> Processor::wait(sim::Duration d, SleepPolicy policy, energy::Routine attr) {
  const WaitReg reg = add_waiter(policy_for_gap(d, policy), attr);
  refresh_idle_state();
  co_await sim::Delay{d};
  remove_waiter(reg);
  refresh_idle_state();
}

sim::Task<void> Processor::wait_signal(sim::Signal& sig, SleepPolicy policy,
                                       energy::Routine attr, sim::Duration expected) {
  const WaitReg reg = add_waiter(policy_for_gap(expected, policy), attr);
  refresh_idle_state();
  co_await sig.wait();
  remove_waiter(reg);
  refresh_idle_state();
}

}  // namespace iotsim::hw
