// The round-barrier protocol (util/round_gate.hpp), outcome by outcome:
// checkpoint trip -> Stop, quarantined round -> Skip, round fault point ->
// Stop with a Fault halt and fault report, contained batch throw -> false
// with the site and unit recorded, and the canonical-order unit filter.
// Each runs on a gate without a guard (gate-local), on an unlimited guard,
// and on a guard with armed (but not exceeded) budgets.
#include "util/budget.hpp"
#include "util/fault.hpp"
#include "util/recovery.hpp"
#include "util/round_gate.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

using namespace smartly;
using util::BudgetKind;
using util::RoundGate;
using util::RoundStep;

namespace {

enum class GuardKind { None, Unlimited, Armed };

class RoundGateTest : public ::testing::TestWithParam<GuardKind> {
protected:
  RoundGateTest() {
    util::ResourceBudgets budgets;
    if (GetParam() == GuardKind::Armed) {
      budgets.solver_conflicts = 1000;
      budgets.solver_propagations = 100000;
      budgets.max_growth_pct = 50;
    }
    guard_ = std::make_unique<util::ResourceGuard>(budgets, &cancel_);
    guard_->set_growth_baseline(100);
  }

  /// What the engine hands the gate: no guard, or the test's guard.
  util::ResourceGuard* passed() { return GetParam() == GuardKind::None ? nullptr : guard_.get(); }

  util::CancelToken cancel_;
  std::unique_ptr<util::ResourceGuard> guard_;
};

util::FaultPlan always_throw(const char* site) {
  util::FaultPlan plan;
  plan.seed = 7;
  plan.throw_permille = 1000;
  plan.site_filter = site;
  return plan;
}

} // namespace

TEST_P(RoundGateTest, BindsTheCallersGuardOrItsOwn) {
  RoundGate gate(passed(), "test.round");
  if (GetParam() == GuardKind::None)
    EXPECT_NE(&gate.guard(), guard_.get());
  else
    EXPECT_EQ(&gate.guard(), guard_.get());
  EXPECT_EQ(gate.begin_round(1, 100), RoundStep::Run);
  EXPECT_EQ(gate.begin_round(2), RoundStep::Run);
  EXPECT_FALSE(gate.halted());
  EXPECT_EQ(gate.quarantined(), 0u);
  EXPECT_FALSE(gate.guard().halted());
}

TEST_P(RoundGateTest, CheckpointTripStops) {
  RoundGate gate(passed(), "test.round");
  util::ResourceGuard& g = gate.guard();
  EXPECT_EQ(gate.begin_round(1), RoundStep::Run);
  BudgetKind want = BudgetKind::Cancelled;
  if (GetParam() == GuardKind::Armed) {
    g.charge_conflicts(1001); // over the armed conflict budget
    want = BudgetKind::Conflicts;
  } else if (GetParam() == GuardKind::Unlimited) {
    cancel_.cancel(); // an unlimited guard trips only on its cancel token
  } else {
    g.halt(BudgetKind::Cancelled); // the gate-local guard has no token
  }
  EXPECT_EQ(gate.begin_round(2), RoundStep::Stop);
  EXPECT_TRUE(gate.halted());
  EXPECT_EQ(g.tripped(), want);
  EXPECT_EQ(g.report().halted_engines, 1u);
  EXPECT_FALSE(g.fault_report().valid);
}

TEST_P(RoundGateTest, GrowthCheckpointUsesTheCellCount) {
  RoundGate gate(passed(), "test.round");
  util::ResourceGuard& g = gate.guard();
  g.set_growth_baseline(100); // first caller wins: no-op unless gate-local
  // 151 cells is over a 50% cap on a baseline of 100; 0 skips the check.
  EXPECT_EQ(gate.begin_round(1, 0), RoundStep::Run);
  if (GetParam() == GuardKind::Armed) {
    EXPECT_EQ(gate.begin_round(2, 151), RoundStep::Stop);
    EXPECT_EQ(g.tripped(), BudgetKind::Growth);
  } else {
    EXPECT_EQ(gate.begin_round(2, 151), RoundStep::Run);
  }
}

TEST_P(RoundGateTest, QuarantinedRoundIsSkippedAndCounted) {
  util::QuarantineSet q;
  q.add("test.round", 2);
  RoundGate gate(passed(), "test.round");
  gate.guard().set_quarantine(&q);
  EXPECT_EQ(gate.begin_round(1), RoundStep::Run);
  EXPECT_EQ(gate.begin_round(2), RoundStep::Skip);
  EXPECT_EQ(gate.begin_round(3), RoundStep::Run);
  EXPECT_EQ(gate.quarantined(), 1u);
  EXPECT_FALSE(gate.halted());
  EXPECT_FALSE(gate.guard().halted());
  gate.guard().set_quarantine(nullptr);
}

TEST_P(RoundGateTest, QuarantineOutranksTheRoundFaultPoint) {
  // A round the recovery layer quarantined after it faulted is skipped, not
  // re-faulted: the retry must make progress.
  util::QuarantineSet q;
  q.add("test.round", 1);
  RoundGate gate(passed(), "test.round");
  gate.guard().set_quarantine(&q);
  util::FaultScope scope(always_throw("test.round"));
  EXPECT_EQ(gate.begin_round(1), RoundStep::Skip);
  EXPECT_EQ(gate.begin_round(2), RoundStep::Stop);
  gate.guard().set_quarantine(nullptr);
}

TEST_P(RoundGateTest, RoundFaultStopsWithFaultHaltAndReport) {
  RoundGate gate(passed(), "test.round");
  util::FaultScope scope(always_throw("test.round"));
  EXPECT_EQ(gate.begin_round(3), RoundStep::Stop);
  EXPECT_TRUE(gate.halted());
  const util::ResourceGuard& g = gate.guard();
  EXPECT_EQ(g.tripped(), BudgetKind::Fault);
  EXPECT_EQ(g.report().halted_engines, 1u);
  const util::FaultReport fr = g.fault_report();
  ASSERT_TRUE(fr.valid);
  EXPECT_EQ(fr.site, "test.round");
  EXPECT_EQ(fr.unit, 3u);
}

TEST_P(RoundGateTest, ContainedBatchThrowRecordsSiteAndUnit) {
  RoundGate gate(passed(), "test.round");
  EXPECT_EQ(gate.begin_round(1), RoundStep::Run);
  int ran = 0;
  EXPECT_TRUE(gate.contain([&] { ++ran; }));
  EXPECT_FALSE(gate.halted());
  EXPECT_FALSE(gate.contain([&] {
    ++ran;
    throw util::FaultInjected("test.solve", 42);
  }));
  EXPECT_EQ(ran, 2);
  EXPECT_TRUE(gate.halted());
  const util::ResourceGuard& g = gate.guard();
  EXPECT_EQ(g.tripped(), BudgetKind::Fault);
  EXPECT_EQ(g.report().halted_engines, 1u);
  const util::FaultReport fr = g.fault_report();
  ASSERT_TRUE(fr.valid);
  EXPECT_EQ(fr.site, "test.solve");
  EXPECT_EQ(fr.unit, 42u);
  // The halt is sticky: the next round does not open.
  EXPECT_EQ(gate.begin_round(2), RoundStep::Stop);
}

TEST_P(RoundGateTest, RealErrorsPropagateThroughContain) {
  RoundGate gate(passed(), "test.round");
  EXPECT_THROW(gate.contain([] { throw std::runtime_error("bug"); }), std::runtime_error);
  EXPECT_FALSE(gate.halted());
  EXPECT_FALSE(gate.guard().halted());
}

TEST_P(RoundGateTest, AdmitFiltersAndCountsQuarantinedUnits) {
  util::QuarantineSet q;
  q.add("test.solve", 5);
  RoundGate gate(passed(), "test.round");
  EXPECT_TRUE(gate.admit("test.solve", 5)); // nothing attached yet
  gate.guard().set_quarantine(&q);
  EXPECT_TRUE(gate.admit("test.solve", 4));
  EXPECT_FALSE(gate.admit("test.solve", 5));
  EXPECT_TRUE(gate.admit("test.other", 5)); // site-scoped
  EXPECT_EQ(gate.quarantined(), 1u);
  EXPECT_FALSE(gate.halted());
  gate.guard().set_quarantine(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Guards, RoundGateTest,
                         ::testing::Values(GuardKind::None, GuardKind::Unlimited,
                                           GuardKind::Armed),
                         [](const ::testing::TestParamInfo<GuardKind>& info) {
                           switch (info.param) {
                           case GuardKind::None: return "NoGuard";
                           case GuardKind::Unlimited: return "Unlimited";
                           case GuardKind::Armed: return "Armed";
                           }
                           return "Unknown";
                         });
