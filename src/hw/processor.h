// Execution + power-state model shared by the main-board CPU and the MCU.
//
// A Processor is an exclusive execution resource (FIFO SimMutex) with a
// power-state machine:
//
//   ActiveBusy — executing work
//   ActiveWait — powered but stalled (the baseline's per-sample stall, §II-C)
//   Sleep modes (shallow→deep) — entered only while idle, policy-limited
//   Transition — waking up (latency + energy, the §III-A 4 mJ overhead)
//
// Sleep is requested by *waiters*: a coroutine that waits registers a
// (policy, attribution) pair, counted per policy and per attribution;
// while nothing executes, the machine drops to the deepest mode allowed by
// every current waiter (a PM-QoS-style constraint: the baseline runtime
// registers kBusyWait because it must take an interrupt within ~0.6 ms,
// under the light-sleep break-even; batching allows light sleep; COM allows
// deep sleep). Energy while idle is
// attributed to the highest-precedence waiter attribution, matching how the
// paper books stall energy under Data Transfer and offloaded-sleep energy
// under Computation (§III-B4).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "energy/energy_accountant.h"
#include "energy/power_state_machine.h"
#include "sim/process.h"
#include "sim/sim_time.h"

namespace iotsim::sim {
class Simulator;
}

namespace iotsim::hw {

/// How deep a waiting coroutine allows the processor to sleep.
enum class SleepPolicy : unsigned char {
  kBusyWait = 0,    // must stay powered (sub-break-even gaps)
  kLightSleep = 1,  // fast-wake clock gating
  kDeepSleep = 2,   // suspend; slow wake
};

inline constexpr std::size_t kSleepPolicyCount = 3;

struct SleepMode {
  double watts;
  sim::Duration wake_latency;
  double transition_w;

  /// Minimum gap for which entering this mode saves energy vs. waiting at
  /// `active_w` (§III-A).
  [[nodiscard]] sim::Duration breakeven(double active_w) const {
    const double joules = transition_w * wake_latency.to_seconds();
    return sim::Duration::from_seconds(joules / (active_w - watts));
  }
};

struct ProcessorSpec {
  double active_w = 1.0;   // powered but stalled (ActiveWait)
  /// Power while executing; 0 ⇒ same as active_w. Real cores draw more
  /// under sustained compute than when stalled on IO.
  double busy_w = 0.0;
  std::vector<SleepMode> sleep_modes;  // shallow → deep; may be empty
  double nominal_mips = 1000.0;
};

class Processor {
 public:
  Processor(sim::Simulator& sim, energy::EnergyAccountant& acct, std::string name,
            ProcessorSpec spec);

  /// Exclusive busy execution for `d`, attributed to `attr`. Pays wake
  /// latency+energy first if the processor is asleep.
  [[nodiscard]] sim::Task<void> execute(sim::Duration d, energy::Routine attr);

  /// Timer wait: the caller resumes after `d`. While waiting, the processor
  /// may sleep as deep as `policy` permits (and only if `d` clears the
  /// break-even threshold — otherwise it degrades to an active wait).
  [[nodiscard]] sim::Task<void> wait(sim::Duration d, SleepPolicy policy, energy::Routine attr);

  /// Event wait: resumes when `sig` is notified. `expected` is the runtime's
  /// duration hint used for the break-even check.
  [[nodiscard]] sim::Task<void> wait_signal(sim::Signal& sig, SleepPolicy policy,
                                            energy::Routine attr, sim::Duration expected);

  [[nodiscard]] energy::PowerStateMachine& power() { return psm_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] bool asleep() const;
  [[nodiscard]] std::uint64_t wakeup_count() const { return wakeups_; }

  /// Deepest sleep mode whose break-even an idle gap of `gap` clears,
  /// capped at `max_policy` — the PM-QoS prediction a driver with a known
  /// interrupt cadence installs.
  [[nodiscard]] SleepPolicy policy_for_gap(sim::Duration gap,
                                           SleepPolicy max_policy = SleepPolicy::kDeepSleep) const;

 private:
  /// A registered waiter; removing it decrements the counts it added.
  struct WaitReg {
    SleepPolicy policy;
    energy::Routine attr;
  };

 public:
  /// RAII standing idle constraint: while alive, the processor never sleeps
  /// deeper than `policy` and its idle energy is attributed to `attr` —
  /// how an active interrupt stream keeps the CPU out of deep states.
  class IdleConstraint {
   public:
    IdleConstraint(Processor& p, SleepPolicy policy, energy::Routine attr)
        : p_{&p}, reg_{p.add_waiter(policy, attr)} {
      p.refresh_idle_state();
    }
    ~IdleConstraint() { release(); }
    IdleConstraint(const IdleConstraint&) = delete;
    IdleConstraint& operator=(const IdleConstraint&) = delete;
    IdleConstraint(IdleConstraint&& o) noexcept
        : p_{std::exchange(o.p_, nullptr)}, reg_{o.reg_} {}

    void release() {
      if (p_ != nullptr) {
        p_->remove_waiter(reg_);
        p_->refresh_idle_state();
        p_ = nullptr;
      }
    }

   private:
    Processor* p_;
    WaitReg reg_;
  };

  [[nodiscard]] IdleConstraint constrain_idle(SleepPolicy policy, energy::Routine attr) {
    return IdleConstraint{*this, policy, attr};
  }

 private:
  // Power-state ids, fixed layout: 0 busy, 1 wait, 2 transition, 3.. sleeps.
  static constexpr energy::PowerStateMachine::StateId kBusy = 0;
  static constexpr energy::PowerStateMachine::StateId kWait = 1;
  static constexpr energy::PowerStateMachine::StateId kTransition = 2;
  static constexpr energy::PowerStateMachine::StateId kFirstSleep = 3;

  WaitReg add_waiter(SleepPolicy policy, energy::Routine attr);
  void remove_waiter(WaitReg reg);

  /// Recomputes the idle power state from current waiters (no-op while
  /// executing).
  void refresh_idle_state();
  /// Pays wake latency/energy if asleep; leaves the machine in ActiveWait.
  [[nodiscard]] sim::Task<void> wake_if_sleeping(energy::Routine attr);
  /// Transitions into a sleep state, stamping the entry time.
  void enter_sleep(energy::PowerStateMachine::StateId state, energy::Routine attr);

  [[nodiscard]] std::vector<energy::PowerState> build_states() const;
  /// Declares which power-state changes are physically legal (wake paths,
  /// idle drops); installed on the state machine as a checked invariant.
  [[nodiscard]] energy::TransitionTable build_transition_table() const;

  sim::Simulator& sim_;
  std::string name_;
  ProcessorSpec spec_;
  // Break-even gap of each sleep mode a policy can reach, shallow to deep
  // (computed once: spec_ never changes).
  std::array<sim::Duration, kSleepPolicyCount - 1> breakevens_{};
  energy::PowerStateMachine psm_;
  sim::SimMutex exec_mutex_;
  int busy_depth_ = 0;
  bool waking_ = false;
  // When the current sleep began. A sleep entered and exited at the same
  // timestamp (a bookkeeping transient between two operations) is free: no
  // wake latency/energy.
  sim::SimTime sleep_entered_at_ = sim::SimTime::from_ns(std::numeric_limits<std::int64_t>::min() / 4);
  // Current waiters, counted by policy and by attribution: the idle state
  // depends only on the shallowest policy present and on which
  // attributions are present.
  std::array<int, kSleepPolicyCount> waiters_by_policy_{};
  std::array<int, energy::kRoutineCount> waiters_by_attr_{};
  std::uint64_t wakeups_ = 0;
};

}  // namespace iotsim::hw
