// Tests for the IOTSIM_CHECK invariant framework (src/check) and for the
// invariants instrumented across the stack. Handler/formatting mechanics
// are testable in every build; tests that a specific invariant *fires*
// require the checks to be compiled in (Debug or -DIOTSIM_CHECKS=ON) and
// are guarded by IOTSIM_CHECKS_ENABLED.
#include "check/check.h"

#include <gtest/gtest.h>

#include <string>

#include "energy/battery.h"
#include "energy/energy_accountant.h"
#include "energy/power_state_machine.h"
#include "net/shared_access_point.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace iotsim {
namespace {

using check::CheckFailure;
using check::FailureInfo;
using check::ScopedFailureHandler;

TEST(CheckFormat, EmptyAndPrintf) {
  EXPECT_EQ(check::format(), "");
  EXPECT_EQ(check::format("plain"), "plain");
  EXPECT_EQ(check::format("x=%d y=%s", 7, "abc"), "x=7 y=abc");
  EXPECT_EQ(check::format("%.3f", 1.5), "1.500");
}

TEST(CheckFormat, LongMessagesAreNotTruncated) {
  const std::string big(500, 'q');
  EXPECT_EQ(check::format("%s", big.c_str()), big);
}

TEST(CheckHandler, FailRoutesToInstalledHandler) {
  ScopedFailureHandler guard{check::throwing_handler};
  try {
    check::fail("some_file.cpp", 42, "a < b", "t=1.5s component 'cpu'");
    FAIL() << "fail() returned";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("a < b"), std::string::npos) << what;
    EXPECT_NE(what.find("some_file.cpp:42"), std::string::npos) << what;
    EXPECT_NE(what.find("t=1.5s component 'cpu'"), std::string::npos) << what;
  }
}

TEST(CheckHandler, ScopedHandlerRestoresPrevious) {
  static int calls = 0;
  const auto counting = [](const FailureInfo&) {
    ++calls;
    throw CheckFailure{FailureInfo{"f", 1, "c", ""}};
  };
  ScopedFailureHandler outer{check::throwing_handler};
  {
    ScopedFailureHandler inner{counting};
    EXPECT_THROW(check::fail("f", 1, "inner", ""), CheckFailure);
    EXPECT_EQ(calls, 1);
  }
  // Restored: the counting handler must not run again.
  EXPECT_THROW(check::fail("f", 2, "outer", ""), CheckFailure);
  EXPECT_EQ(calls, 1);
}

TEST(CheckRepr, KnowsSimTimeAndArithmetic) {
  EXPECT_EQ(check::detail::repr(42), "42");
  EXPECT_EQ(check::detail::repr(sim::SimTime::origin()), sim::SimTime::origin().to_string());
  EXPECT_EQ(check::detail::repr("text"), "text");
}

#if IOTSIM_CHECKS_ENABLED

TEST(CheckMacros, PassingChecksAreSilent) {
  ScopedFailureHandler guard{check::throwing_handler};
  IOTSIM_CHECK(1 + 1 == 2, "never shown");
  IOTSIM_CHECK_LE(1, 2, "never shown");
  IOTSIM_CHECK_EQ(3, 3);
  SUCCEED();
}

TEST(CheckMacros, FailureCarriesConditionAndContext) {
  ScopedFailureHandler guard{check::throwing_handler};
  const int got = 7;
  try {
    IOTSIM_CHECK(got == 8, "hub '%s' at t=%s", "hub3", "1.25s");
    FAIL() << "check did not fire";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got == 8"), std::string::npos) << what;
    EXPECT_NE(what.find("hub 'hub3' at t=1.25s"), std::string::npos) << what;
  }
}

TEST(CheckMacros, CheckOpReportsBothValues) {
  ScopedFailureHandler guard{check::throwing_handler};
  try {
    IOTSIM_CHECK_LT(9, 4, "budget exceeded");
    FAIL() << "check did not fire";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("lhs=9"), std::string::npos) << what;
    EXPECT_NE(what.find("rhs=4"), std::string::npos) << what;
    EXPECT_NE(what.find("budget exceeded"), std::string::npos) << what;
  }
}

TEST(CheckMacros, OperandsEvaluateOnce) {
  ScopedFailureHandler guard{check::throwing_handler};
  int evals = 0;
  const auto bump = [&] { return ++evals; };
  IOTSIM_CHECK_GE(bump(), 1, "side effect");
  EXPECT_EQ(evals, 1);
}

// --- instrumented invariants -------------------------------------------

TEST(Invariants, EventQueuePopOnEmptyFires) {
  ScopedFailureHandler guard{check::throwing_handler};
  sim::EventQueue q;
  EXPECT_THROW((void)q.pop(), CheckFailure);
}

TEST(Invariants, EventQueueRejectsPreOriginSchedule) {
  ScopedFailureHandler guard{check::throwing_handler};
  sim::EventQueue q;
  EXPECT_THROW(q.schedule(sim::SimTime::from_ns(-1), [] {}), CheckFailure);
}

TEST(Invariants, DuplicateComponentNameFires) {
  ScopedFailureHandler guard{check::throwing_handler};
  energy::EnergyAccountant acct;
  acct.register_component("hub0/cpu");
  EXPECT_THROW(acct.register_component("hub0/cpu"), CheckFailure);
  // Distinct scopes are fine.
  EXPECT_NO_THROW(acct.register_component("hub1/cpu"));
}

TEST(Invariants, BackwardsSegmentFires) {
  ScopedFailureHandler guard{check::throwing_handler};
  energy::EnergyAccountant acct;
  const auto id = acct.register_component("dev");
  energy::PowerSegment seg{id,
                           energy::Routine::kIdle,
                           sim::SimTime::from_ns(100),
                           sim::SimTime::from_ns(50),
                           1.0};
  EXPECT_THROW(acct.add(seg), CheckFailure);
}

TEST(Invariants, NegativeWattageFires) {
  ScopedFailureHandler guard{check::throwing_handler};
  energy::EnergyAccountant acct;
  const auto id = acct.register_component("dev");
  energy::PowerSegment seg{id,
                           energy::Routine::kIdle,
                           sim::SimTime::from_ns(0),
                           sim::SimTime::from_ns(50),
                           -2.0};
  EXPECT_THROW(acct.add(seg), CheckFailure);
}

TEST(Invariants, ConservationHoldsOnHealthyLedger) {
  energy::EnergyAccountant acct;
  const auto a = acct.register_component("a");
  const auto b = acct.register_component("b");
  acct.add({a, energy::Routine::kComputation, sim::SimTime::from_ns(0),
            sim::SimTime::from_ns(1'000'000), 1.5});
  acct.add({b, energy::Routine::kIdle, sim::SimTime::from_ns(0),
            sim::SimTime::from_ns(2'000'000), 0.25});
  EXPECT_NO_THROW(acct.check_conservation());
}

TEST(Invariants, IllegalPowerTransitionFires) {
  ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  const auto id = acct.register_component("dev");
  energy::PowerStateMachine psm{
      sim, acct, id, {{"off", 0.0}, {"warm", 0.5}, {"on", 2.0}}, 0};
  energy::TransitionTable table{3};
  table.allow(0, 1).allow(1, 2).allow(2, 1).allow(1, 0);  // off <-> warm <-> on
  psm.set_transition_table(std::move(table));

  psm.set_state(1);
  psm.set_state(2);
  psm.set_state(1);
  // off -> on without warming up is declared illegal.
  psm.set_state(0);
  EXPECT_THROW(psm.set_state(2), CheckFailure);
  // A same-state set is never a transition.
  EXPECT_NO_THROW(psm.set_state(0));
}

TEST(Invariants, TransitionTableSizeMismatchFires) {
  ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim;
  energy::EnergyAccountant acct;
  const auto id = acct.register_component("dev");
  energy::PowerStateMachine psm{sim, acct, id, {{"a", 0.0}, {"b", 1.0}}, 0};
  EXPECT_THROW(psm.set_transition_table(energy::TransitionTable{5}), CheckFailure);
}

TEST(Invariants, BatteryRejectsNegativeDrain) {
  ScopedFailureHandler guard{check::throwing_handler};
  energy::Battery bat{10.0};
  EXPECT_THROW(bat.drain_clamped(-1.0), CheckFailure);
  EXPECT_NO_THROW(bat.drain_clamped(5.0));
}

TEST(Invariants, BatteryRejectsBadUsableFraction) {
  ScopedFailureHandler guard{check::throwing_handler};
  EXPECT_THROW(energy::Battery(10.0, 1.5), CheckFailure);
  EXPECT_THROW(energy::Battery(10.0, 0.0), CheckFailure);
}

TEST(Invariants, SimulatorBoundApRejectsAWindowedConfig) {
  // A windowed AP is kernel-less: only the shard runner's boundary loop
  // arbitrates it.
  ScopedFailureHandler guard{check::throwing_handler};
  sim::Simulator sim;
  net::ApConfig cfg;
  cfg.reservation_window = sim::Duration::ms(10);
  EXPECT_THROW(net::SharedAccessPoint(sim, cfg), CheckFailure);
  EXPECT_NO_THROW(net::SharedAccessPoint{cfg});
}

#endif  // IOTSIM_CHECKS_ENABLED

}  // namespace
}  // namespace iotsim
