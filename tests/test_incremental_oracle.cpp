// Incremental oracle (incremental_oracle.*): the correctness bar is that it
// returns bit-identical CtrlDecisions to the from-scratch InferenceOracle on
// every query — including after the walker mutates cells mid-run, which is
// where stale cone/decision-cache entries would show. Plus unit coverage for
// the supporting pieces: InferenceEngine::reset, exhaustive_forced_ex's
// early-exit accounting, and cone re-derivation after a mutation.
#include "core/incremental_oracle.hpp"

#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "core/inference.hpp"
#include "core/mux_restructure.hpp"
#include "core/sat_redundancy.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/pipeline.hpp"
#include "sim/packed_sim.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

using namespace smartly;
using core::IncrementalOracle;
using core::IncrementalOracleOptions;
using core::InferenceOracle;
using opt::CtrlDecision;
using opt::KnownMap;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::Wire;

namespace {

/// Records (control-bit name, decision) so traces from two clones of the
/// same design are comparable; forwards mutation notifications.
class TraceOracle final : public opt::MuxtreeOracle {
public:
  explicit TraceOracle(opt::MuxtreeOracle& inner) : inner_(inner) {}

  void begin_module(Module& module) override { inner_.begin_module(module); }

  CtrlDecision decide(SigBit ctrl, const KnownMap& known) override {
    const CtrlDecision d = inner_.decide(ctrl, known);
    std::string entry = ctrl.is_wire()
                            ? ctrl.wire->name() + "[" + std::to_string(ctrl.offset) + "]"
                            : std::string("const");
    entry += "=";
    entry += std::to_string(static_cast<int>(d));
    trace.push_back(std::move(entry));
    return d;
  }

  void notify_cell_mutated(rtlil::Cell* cell) override { inner_.notify_cell_mutated(cell); }
  void notify_cell_removed(rtlil::Cell* cell) override { inner_.notify_cell_removed(cell); }

  std::vector<std::string> trace;

private:
  opt::MuxtreeOracle& inner_;
};

/// Run both oracles through full optimize_muxtrees runs on clones of the
/// same prepared design and require identical decision traces.
void expect_identical_decisions(const std::string& verilog,
                                const core::SatRedundancyOptions& base_opts = {}) {
  auto design = verilog::read_verilog(verilog);
  Module& top = *design->top();
  opt::coarse_opt(top);
  core::mux_restructure(top, {});
  opt::opt_expr(top);
  opt::opt_clean(top);

  const auto baseline_design = rtlil::clone_design(*design);
  InferenceOracle baseline_oracle(base_opts);
  TraceOracle baseline(baseline_oracle);
  opt::optimize_muxtrees(*baseline_design->top(), baseline);

  const auto incr_design = rtlil::clone_design(*design);
  IncrementalOracleOptions incr_opts;
  incr_opts.base = base_opts;
  IncrementalOracle incr_oracle(incr_opts);
  TraceOracle incremental(incr_oracle);
  opt::optimize_muxtrees(*incr_design->top(), incremental);

  ASSERT_EQ(baseline.trace.size(), incremental.trace.size());
  for (size_t i = 0; i < baseline.trace.size(); ++i)
    ASSERT_EQ(baseline.trace[i], incremental.trace[i]) << "first divergence at query " << i;
}

struct Fixture {
  Design design;
  Module* mod;
  Fixture() { mod = design.add_module("top"); }
  Wire* in(const char* name, int w = 1) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_input(x);
    return x;
  }
  Wire* out(const char* name, int w = 1) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_output(x);
    return x;
  }
};

} // namespace

// --- differential: full runs, including walker mutations --------------------

TEST(IncrementalOracleDiff, Fig3DependentControl) {
  expect_identical_decisions(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )");
}

TEST(IncrementalOracleDiff, DeepNestWithDeadPaths) {
  expect_identical_decisions(R"(
    module top(s, t, u, a, b, c, d, y);
      input s, t, u; input [3:0] a, b, c, d; output [3:0] y;
      wire [3:0] inner;
      assign inner = (s & t) ? a : ((s | u) ? b : c);
      assign y = s ? inner : ((~s & t) ? d : inner ^ a);
    endmodule
  )");
}

TEST(IncrementalOracleDiff, PublicSuiteCircuit) {
  // One full public benchmark circuit: thousands of queries, multiple
  // sweeps, pmux narrowing, mux collapses — the cache-invalidation gauntlet.
  for (const auto& circuit : benchgen::public_suite()) {
    if (circuit.name == "usb_funct" || circuit.name == "ac97_ctrl")
      expect_identical_decisions(circuit.verilog);
  }
}

TEST(IncrementalOracleDiff, RandomCircuits) {
  for (uint64_t seed = 1; seed <= 6; ++seed)
    expect_identical_decisions(benchgen::random_verilog(seed * 0x9e37, 8));
}

TEST(IncrementalOracleDiff, SatHeavyConfiguration) {
  // sim_max_inputs = 0 forces every cone-stage query through SAT.
  core::SatRedundancyOptions opts;
  opts.sim_max_inputs = 0;
  for (const auto& circuit : benchgen::public_suite()) {
    if (circuit.name != "wb_conmax")
      continue;
    expect_identical_decisions(circuit.verilog, opts);
    // A one-conflict budget: both oracles must still agree. (wb_conmax's
    // cones settle within one conflict, so EveryConflictBudgetUpToTheProof
    // below is the test that actually crosses the budget edge.)
    core::SatRedundancyOptions edge = opts;
    edge.sat_conflict_budget = 1;
    expect_identical_decisions(circuit.verilog, edge);
  }
  // Unlimited conflict budget (-1) must reach the solver as the bare
  // sentinel in both oracles.
  opts.sat_conflict_budget = -1;
  expect_identical_decisions(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )",
                             opts);
}

TEST(IncrementalOracleDiff, EveryConflictBudgetUpToTheProof) {
  // ctrl = s & ((a+b)+c == a+(b+c)): forced One under s=1, but only after a
  // few hundred conflicts. No public circuit reaches the budget edge, so
  // sweep every budget from 0 to the unlimited proof's conflict count: the
  // verdict flips from Unknown to One along the way, and the two oracles
  // must agree at each step.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a", 3);
  Wire* b = f.in("b", 3);
  Wire* c = f.in("c", 3);
  const SigSpec lhs = f.mod->Add(f.mod->Add(SigSpec(a), SigSpec(b), 3), SigSpec(c), 3);
  const SigSpec rhs = f.mod->Add(SigSpec(a), f.mod->Add(SigSpec(b), SigSpec(c), 3), 3);
  const SigSpec ctrl = f.mod->And(SigSpec(s), f.mod->Eq(lhs, rhs));
  f.mod->connect(SigSpec(f.out("y")), ctrl);
  const KnownMap known{{SigBit(s, 0), true}};

  auto decide_both = [&](int64_t budget, uint64_t* conflicts) {
    core::SatRedundancyOptions opts;
    opts.use_inference = false;
    opts.sim_max_inputs = 0;
    opts.sat_conflict_budget = budget;
    InferenceOracle baseline(opts);
    IncrementalOracleOptions incr_opts;
    incr_opts.base = opts;
    IncrementalOracle incremental(incr_opts);
    baseline.begin_module(*f.mod);
    incremental.begin_module(*f.mod);
    const CtrlDecision d = baseline.decide(ctrl[0], known);
    EXPECT_EQ(incremental.decide(ctrl[0], known), d) << "budget " << budget;
    if (conflicts)
      *conflicts = baseline.stats().solver_conflicts;
    return d;
  };

  uint64_t proof_conflicts = 0;
  ASSERT_EQ(decide_both(-1, &proof_conflicts), CtrlDecision::One);
  ASSERT_GT(proof_conflicts, 1u);
  EXPECT_EQ(decide_both(0, nullptr), CtrlDecision::Unknown);
  for (int64_t budget = 1; budget <= static_cast<int64_t>(proof_conflicts); ++budget)
    decide_both(budget, nullptr);
}

TEST(IncrementalOracleInvalidation, PublicResetAfterExternalMutation) {
  // begin_module cannot distinguish an externally-mutated module from an
  // unchanged one (same pointer, no notifications); reset() is the contract
  // for passes like opt_expr/opt_clean that rewrite between walks.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  IncrementalOracle oracle;
  oracle.begin_module(*f.mod);
  const KnownMap known{{SigBit(s, 0), true}};
  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::One);

  // External pass rewires the or-cell without notifying the oracle.
  rtlil::Cell* or_cell = f.mod->cells().front().get();
  SigSpec a = or_cell->port(rtlil::Port::A);
  a[0] = SigBit(rtlil::State::S0);
  or_cell->set_port(rtlil::Port::A, a);

  oracle.reset();
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::Unknown);
}

TEST(IncrementalOracleDiff, InferenceDisabled) {
  core::SatRedundancyOptions opts;
  opts.use_inference = false;
  expect_identical_decisions(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )",
                             opts);
}

// --- explicit invalidation: mutate between queries ---------------------------

TEST(IncrementalOracleInvalidation, MutatedCellIsNotServedStale) {
  // ctrl = s | r. With s known true the oracle decides One. Then the "walker"
  // rewires the or-cell to read a constant 0 instead of s and notifies; the
  // same query must now be re-derived on the new structure (r unknown -> the
  // bit is no longer forced), not served from a stale cache entry.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  rtlil::Cell* or_cell = f.mod->cells().front().get();

  IncrementalOracle oracle;
  oracle.begin_module(*f.mod);
  const KnownMap known{{SigBit(s, 0), true}};
  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::One);
  // Same query again: decision cache must hit and agree.
  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::One);
  EXPECT_GE(oracle.stats().decision_cache_hits, 1u);

  SigSpec a = or_cell->port(rtlil::Port::A);
  a[0] = SigBit(rtlil::State::S0);
  or_cell->set_port(rtlil::Port::A, a);
  oracle.notify_cell_mutated(or_cell);

  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::Unknown);
  EXPECT_GE(oracle.stats().cells_remapped, 1u);
}

TEST(IncrementalOracleInvalidation, DifferentialAgreesQueryByQuery) {
  // Replay the same query stream against both oracles on one shared module,
  // with a mutation in the middle, asserting agreement at every step.
  Fixture f;
  Wire* s = f.in("s");
  Wire* t = f.in("t");
  Wire* u = f.in("u");
  const SigSpec st = f.mod->And(SigSpec(s), SigSpec(t));
  const SigSpec su = f.mod->Or(st, SigSpec(u));
  f.mod->connect(SigSpec(f.out("y")), su);

  InferenceOracle baseline({});
  IncrementalOracle incremental;
  baseline.begin_module(*f.mod);
  incremental.begin_module(*f.mod);

  const std::vector<KnownMap> stream = {
      {{SigBit(s, 0), false}},
      {{SigBit(s, 0), true}},
      {{SigBit(s, 0), true}, {SigBit(t, 0), true}},
      {{SigBit(u, 0), true}},
      {{SigBit(s, 0), false}}, // repeat: decision-cache path
  };
  for (const auto& known : stream)
    for (const SigBit target : {st[0], su[0]})
      ASSERT_EQ(baseline.decide(target, known), incremental.decide(target, known));

  // Mutate the and-cell (s & t -> s & 1) as the walker would, notify both
  // sides' contract (baseline ignores it), and require continued agreement.
  rtlil::Cell* and_cell = nullptr;
  for (const auto& c : f.mod->cells())
    if (c->type() == rtlil::CellType::And)
      and_cell = c.get();
  ASSERT_NE(and_cell, nullptr);
  SigSpec b = and_cell->port(rtlil::Port::B);
  b[0] = SigBit(rtlil::State::S1);
  and_cell->set_port(rtlil::Port::B, b);
  incremental.notify_cell_mutated(and_cell);

  // The module changed: rebuild the baseline's view (it snapshots per
  // begin_module) and re-run the stream.
  baseline.begin_module(*f.mod);
  incremental.begin_module(*f.mod);
  for (const auto& known : stream)
    for (const SigBit target : {st[0], su[0]})
      ASSERT_EQ(baseline.decide(target, known), incremental.decide(target, known));
}

// --- cache effectiveness ----------------------------------------------------

TEST(IncrementalOracleCaches, RepeatQueriesHitDecisionCache) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  IncrementalOracle oracle;
  oracle.begin_module(*f.mod);
  const KnownMap known{{SigBit(s, 0), false}};
  const CtrlDecision first = oracle.decide(sr[0], known);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(oracle.decide(sr[0], known), first);
  EXPECT_EQ(oracle.stats().decision_cache_hits, 5u);
}

TEST(IncrementalOracleCaches, SameStructureHitsConeCache) {
  // Two queries over the same sub-graph with different known *values* share
  // the AIG encoding: the cone is keyed on structure + root bits, values
  // arrive as constraints.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a");
  const SigSpec sa = f.mod->And(SigSpec(s), SigSpec(a));
  const SigSpec sna = f.mod->And(SigSpec(s), f.mod->Not(SigSpec(a)));
  const SigSpec ctrl = f.mod->Or(sa, sna);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  IncrementalOracleOptions opts;
  opts.base.use_inference = false; // force the cone stage
  IncrementalOracle oracle(opts);
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), false}}), CtrlDecision::Zero);
  EXPECT_EQ(oracle.stats().cone_cache_hits, 1u);
  EXPECT_EQ(oracle.stats().cone_cache_misses, 1u);
}

// --- InferenceEngine::reset --------------------------------------------------

TEST(InferenceEngineReset, ReusedEngineMatchesFreshEngine) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec srr = f.mod->And(sr, SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), srr);

  rtlil::NetlistIndex index(*f.mod);
  std::vector<rtlil::Cell*> all_cells;
  for (const auto& c : f.mod->cells())
    all_cells.push_back(c.get());

  core::InferenceEngine reused;
  for (int round = 0; round < 3; ++round) {
    reused.reset(all_cells, index.sigmap());
    core::InferenceEngine fresh(all_cells, index.sigmap());
    const bool value = round % 2 == 0;
    EXPECT_EQ(reused.assume(index.sigmap()(SigBit(s, 0)), value),
              fresh.assume(index.sigmap()(SigBit(s, 0)), value));
    EXPECT_EQ(reused.propagate(), fresh.propagate());
    EXPECT_EQ(reused.value(index.sigmap()(sr[0])), fresh.value(index.sigmap()(sr[0])));
    EXPECT_EQ(reused.value(index.sigmap()(srr[0])), fresh.value(index.sigmap()(srr[0])));
  }
}

// --- exhaustive_forced_ex ----------------------------------------------------

namespace {

/// y = s ? a : b over fresh AIG inputs; returns (aig, s, a, b, y).
struct MuxAig {
  aig::Aig g;
  aig::Lit s, a, b, y;
  MuxAig() {
    s = g.add_input("s");
    a = g.add_input("a");
    b = g.add_input("b");
    y = g.mux_(s, a, b);
    g.add_output(y, "y");
  }
};

} // namespace

TEST(ExhaustiveForcedEx, MatchesLegacyWrapperOnAllVerdicts) {
  MuxAig m;
  // Forced one: s=1, a=1.
  EXPECT_EQ(sim::exhaustive_forced(m.g, {{m.s, true}, {m.a, true}}, m.y),
            sim::Forced::One);
  // Contradiction: y constrained both ways via internal literal.
  EXPECT_EQ(sim::exhaustive_forced(m.g, {{m.y, true}, {m.y, false}}, m.y),
            sim::Forced::Contradiction);
  // Unconstrained: None.
  EXPECT_EQ(sim::exhaustive_forced(m.g, {}, m.y), sim::Forced::None);
}

TEST(ExhaustiveForcedEx, EarlyExitSurfacedForNonForcedTargets) {
  // 7 free inputs -> 2 words of 64 patterns; an OR tree is 0 only on the
  // all-zero pattern (word 0), so both polarities appear in the first word
  // and the sweep must stop before word 2.
  aig::Aig g;
  aig::Lit acc = aig::kFalse;
  for (int i = 0; i < 7; ++i)
    acc = g.or_(acc, g.add_input());
  g.add_output(acc, "y");

  sim::SimOptions opts;
  const sim::SimResult r = sim::exhaustive_forced_ex(g, {}, acc, opts);
  EXPECT_EQ(r.forced, sim::Forced::None);
  EXPECT_TRUE(r.early_exit);
}

// --- cone re-derivation ------------------------------------------------------

TEST(IncrementalOracleSolver, InvalidatedConeIsReDerived) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  const SigSpec eq = f.mod->Eq(SigSpec(a), SigSpec(b));
  const SigSpec ctrl = f.mod->Or(SigSpec(s), eq);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  IncrementalOracleOptions opts;
  opts.base.use_inference = false;
  opts.base.sim_max_inputs = 0; // force the SAT path
  IncrementalOracle oracle(opts);
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_GT(oracle.stats().sat_calls, 0u);

  // Mutate the or-cell: its cached cone must be evicted, and the re-derived
  // decision must reflect the new structure (ctrl == eq now).
  rtlil::Cell* or_cell = nullptr;
  for (const auto& c : f.mod->cells())
    if (c->type() == rtlil::CellType::Or)
      or_cell = c.get();
  ASSERT_NE(or_cell, nullptr);
  SigSpec sa = or_cell->port(rtlil::Port::A);
  sa[0] = SigBit(rtlil::State::S0);
  or_cell->set_port(rtlil::Port::A, sa);
  oracle.notify_cell_mutated(or_cell);

  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::Unknown);
}
