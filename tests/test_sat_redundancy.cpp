// SAT-based redundancy elimination (§II): the InferenceOracle's decision
// stages (syntactic / inference / simulation / SAT), the full pass on the
// paper's Figure 1-3 shapes, budget/threshold behaviour, and the portable
// decision memo (a warm memo must replay exactly the cold run's verdicts).
#include "aig/aigmap.hpp"
#include "backend/write_rtlil.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "cec/cec.hpp"
#include "core/mux_restructure.hpp"
#include "core/sat_redundancy.hpp"
#include "opt/opt_clean.hpp"
#include "opt/opt_expr.hpp"
#include "opt/pipeline.hpp"
#include "rtlil/module.hpp"
#include "service/warm_cache.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

using namespace smartly;
using core::InferenceOracle;
using core::SatRedundancyOptions;
using opt::CtrlDecision;
using opt::KnownMap;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::Wire;

namespace {

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

TEST(InferenceOracleTest, SyntacticLookupStillWorks) {
  Fixture f;
  Wire* s = f.in("s");
  f.mod->connect(SigSpec(f.out("y")), SigSpec(s));
  InferenceOracle oracle({});
  oracle.begin_module(*f.mod);
  KnownMap known{{SigBit(s, 0), true}};
  EXPECT_EQ(oracle.decide(SigBit(s, 0), known), CtrlDecision::One);
  known[SigBit(s, 0)] = false;
  EXPECT_EQ(oracle.decide(SigBit(s, 0), known), CtrlDecision::Zero);
  EXPECT_GE(oracle.stats().decided_syntactic, 2u);
}

TEST(InferenceOracleTest, NoKnownSignalsMeansUnknown) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);
  InferenceOracle oracle({});
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(sr[0], {}), CtrlDecision::Unknown);
}

TEST(InferenceOracleTest, Fig3OrDependence) {
  // ctrl = s | r with s known true -> One; with s known false -> Unknown.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);

  InferenceOracle oracle({});
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(sr[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.decide(sr[0], {{SigBit(s, 0), false}}), CtrlDecision::Unknown);
}

TEST(InferenceOracleTest, AndDependence) {
  // ctrl = s & r with s false -> Zero.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->And(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);
  InferenceOracle oracle({});
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(sr[0], {{SigBit(s, 0), false}}), CtrlDecision::Zero);
}

TEST(InferenceOracleTest, SimOrSatDecidesNonTrivialDependence) {
  // ctrl = (s & a) | (s & ~a): equals s, but no single inference rule sees
  // it — needs simulation or SAT over the sub-graph.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a");
  const SigSpec sa = f.mod->And(SigSpec(s), SigSpec(a));
  const SigSpec sna = f.mod->And(SigSpec(s), f.mod->Not(SigSpec(a)));
  const SigSpec ctrl = f.mod->Or(sa, sna);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  SatRedundancyOptions opts;
  opts.use_inference = false; // force stage 4
  InferenceOracle oracle(opts);
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), false}}), CtrlDecision::Zero);
  const auto& st = oracle.stats();
  EXPECT_EQ(st.decided_sim + st.decided_sat, 2u);
}

TEST(InferenceOracleTest, SatStageHandlesWideSubgraph) {
  // Force SAT (not simulation) by setting sim_max_inputs = 0.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a", 8);
  Wire* b = f.in("b", 8);
  // ctrl = s | (a == b): with s=1, forced 1 whatever a,b.
  const SigSpec eq = f.mod->Eq(SigSpec(a), SigSpec(b));
  const SigSpec ctrl = f.mod->Or(SigSpec(s), eq);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  SatRedundancyOptions opts;
  opts.use_inference = false;
  opts.sim_max_inputs = 0;
  InferenceOracle oracle(opts);
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::One);
  EXPECT_EQ(oracle.stats().decided_sat, 1u);
}

TEST(InferenceOracleTest, DeadPathDetected) {
  // known: s=1 and (s&r)=... ctrl = ~s. With s=1, ~s is 0; but make the path
  // contradictory: known s=1 and or(s,r)=0 simultaneously.
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec other = f.mod->And(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), f.mod->Xor(sr, other));

  InferenceOracle oracle({});
  oracle.begin_module(*f.mod);
  const KnownMap contradictory{{SigBit(s, 0), true}, {sr[0], false}};
  EXPECT_EQ(oracle.decide(other[0], contradictory), CtrlDecision::DeadPath);
  EXPECT_GE(oracle.stats().dead_paths, 1u);
}

TEST(InferenceOracleTest, InputThresholdSkipsSat) {
  // sat_max_inputs = 0 and sim_max_inputs = 0: stage 4 must be skipped and
  // the (inference-invisible) query stays Unknown.
  Fixture f;
  Wire* s = f.in("s");
  Wire* a = f.in("a");
  const SigSpec sa = f.mod->And(SigSpec(s), SigSpec(a));
  const SigSpec sna = f.mod->And(SigSpec(s), f.mod->Not(SigSpec(a)));
  const SigSpec ctrl = f.mod->Or(sa, sna);
  f.mod->connect(SigSpec(f.out("y")), ctrl);

  SatRedundancyOptions opts;
  opts.use_inference = false;
  opts.sim_max_inputs = 0;
  opts.sat_max_inputs = 0;
  InferenceOracle oracle(opts);
  oracle.begin_module(*f.mod);
  EXPECT_EQ(oracle.decide(ctrl[0], {{SigBit(s, 0), true}}), CtrlDecision::Unknown);
  EXPECT_GE(oracle.stats().skipped_too_large, 1u);
}

// --- full pass on elaborated Verilog ----------------------------------------

namespace {

/// Run sat_redundancy + cleanup, assert equivalence, return the AIG areas
/// before and after.
std::pair<size_t, size_t> run_pass(const std::string& src,
                                   const SatRedundancyOptions& opts = {}) {
  auto d = verilog::read_verilog(src);
  auto golden = rtlil::clone_design(*d);
  opt::opt_expr(*d->top());
  opt::opt_clean(*d->top());
  const size_t before = aig::aig_area(*d->top());
  core::sat_redundancy(*d->top(), opts);
  opt::opt_expr(*d->top());
  opt::opt_clean(*d->top());
  const auto cec = cec::check_equivalence(*golden->top(), *d->top());
  EXPECT_TRUE(cec.equivalent) << cec.failing_output;
  return {before, aig::aig_area(*d->top())};
}

} // namespace

TEST(SatRedundancyPass, PaperFig1SameControl) {
  // Y = S ? (S ? A : B) : C -> Y = S ? A : C (baseline-visible too).
  const auto [before, after] = run_pass(R"(
    module top(s, a, b, c, y);
      input s; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? (s ? a : b) : c;
    endmodule
  )");
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, PaperFig3DependentControl) {
  // Y = S ? ((S|R) ? A : B) : C -> Y = S ? A : C (needs inferencing).
  const auto [before, after] = run_pass(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )");
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, AndChainDependence) {
  // inner control s&t: on the s=0 branch it is forced 0.
  const auto [before, after] = run_pass(R"(
    module top(s, t, a, b, c, y);
      input s, t; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? a : ((s & t) ? b : c);
    endmodule
  )");
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, IndependentControlsUntouched) {
  // y = s ? (t ? a : b) : c with independent s, t: nothing to remove;
  // the result must still be equivalent and no larger.
  const auto [before, after] = run_pass(R"(
    module top(s, t, a, b, c, y);
      input s, t; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? (t ? a : b) : c;
    endmodule
  )");
  EXPECT_EQ(after, before);
}

TEST(SatRedundancyPass, InferenceOnlyModeStillCatchesFig3) {
  SatRedundancyOptions opts;
  opts.use_sat = false; // Table I rules only
  const auto [before, after] = run_pass(R"(
    module top(s, r, a, b, c, y);
      input s, r; input [7:0] a, b, c; output [7:0] y;
      assign y = s ? ((s | r) ? a : b) : c;
    endmodule
  )",
                                        opts);
  EXPECT_LT(after, before);
}

TEST(SatRedundancyPass, StatsAccounting) {
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* c = f.in("c", 4);
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec inner = f.mod->Mux(SigSpec(b), SigSpec(a), sr);
  const SigSpec root = f.mod->Mux(SigSpec(c), inner, SigSpec(s));
  f.mod->connect(SigSpec(f.out("y", 4)), root);

  const auto stats = core::sat_redundancy(*f.mod, {});
  EXPECT_GT(stats.queries, 0u);
  EXPECT_GT(stats.walker.mux_collapsed, 0u);
  EXPECT_GE(stats.gates_seen, stats.gates_kept);
}

// --- conflict budget and in-place rewrites ----------------------------------

TEST(InferenceOracleTest, ConflictBudgetEdge) {
  // ctrl = s & ((a+b)+c == a+(b+c)): forced One under s=1, but only after a
  // few hundred conflicts. Budget 0 gives up, an unlimited budget proves it,
  // and a budget of exactly the proof's conflict count still proves it.
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

  auto decide = [&](int64_t budget, uint64_t* conflicts) {
    SatRedundancyOptions opts;
    opts.use_inference = false;
    opts.sim_max_inputs = 0;
    opts.sat_conflict_budget = budget;
    InferenceOracle oracle(opts);
    oracle.begin_module(*f.mod);
    const CtrlDecision d = oracle.decide(ctrl[0], known);
    if (conflicts)
      *conflicts = oracle.stats().solver_conflicts;
    return d;
  };

  uint64_t proof_conflicts = 0;
  ASSERT_EQ(decide(-1, &proof_conflicts), CtrlDecision::One);
  ASSERT_GT(proof_conflicts, 1u);
  EXPECT_EQ(decide(0, nullptr), CtrlDecision::Unknown);
  EXPECT_EQ(decide(static_cast<int64_t>(proof_conflicts), nullptr), CtrlDecision::One);
}

TEST(InferenceOracleTest, RederivedAfterInPlacePortRewrite) {
  // ctrl = s | r. With s known true the oracle decides One. Then the walker
  // rewires the or-cell in place to read a constant 0 instead of s; the same
  // query on the same oracle must now be re-derived on the new structure
  // (r unknown -> the bit is no longer forced).
  Fixture f;
  Wire* s = f.in("s");
  Wire* r = f.in("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  f.mod->connect(SigSpec(f.out("y")), sr);
  rtlil::Cell* or_cell = f.mod->cells().front().get();

  InferenceOracle oracle({});
  oracle.begin_module(*f.mod);
  const KnownMap known{{SigBit(s, 0), true}};
  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::One);

  SigSpec a = or_cell->port(rtlil::Port::A);
  a[0] = SigBit(rtlil::State::S0);
  or_cell->set_port(rtlil::Port::A, a);
  EXPECT_EQ(oracle.decide(sr[0], known), CtrlDecision::Unknown);
}

// --- portable decision memo: cold vs warm -----------------------------------

namespace {

/// Records (control-bit name, decision) so traces from two clones of the
/// same design are comparable.
class TraceOracle final : public opt::MuxtreeOracle {
public:
  explicit TraceOracle(opt::MuxtreeOracle& inner) : inner_(inner) {}

  void begin_module(Module& module) override { inner_.begin_module(module); }
  void begin_module(Module& module, const rtlil::NetlistIndex& index) override {
    inner_.begin_module(module, index);
  }

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

  std::vector<std::string> trace;

private:
  opt::MuxtreeOracle& inner_;
};

std::string public_circuit(const std::string& name) {
  for (const auto& circuit : benchgen::public_suite())
    if (circuit.name == name)
      return circuit.verilog;
  ADD_FAILURE() << "no public circuit " << name;
  return {};
}

std::unique_ptr<Design> prepare(const std::string& verilog) {
  auto design = verilog::read_verilog(verilog);
  Module& top = *design->top();
  opt::coarse_opt(top);
  core::mux_restructure(top, {});
  opt::opt_expr(top);
  opt::opt_clean(top);
  return design;
}

/// One serial optimize_muxtrees run on a clone of `prepared`.
std::vector<std::string> traced_walk(const Design& prepared, const SatRedundancyOptions& opts,
                                     core::SatRedundancyStats* stats) {
  const auto design = rtlil::clone_design(prepared);
  InferenceOracle oracle(opts);
  TraceOracle traced(oracle);
  opt::optimize_muxtrees(*design->top(), traced);
  *stats = oracle.stats();
  return traced.trace;
}

/// Walk the same design memo-less, then cold and warm on one shared memo.
/// All three decision traces must be identical, and the warm run must ask
/// the memo exactly the cold run's questions, missing only where the cold
/// run could not memoize. Returns the warm run's memo hits beyond the cold
/// run's own repeats (callers require some).
size_t expect_warm_memo_replays_cold(const std::string& verilog,
                                     const SatRedundancyOptions& base = {}) {
  const auto prepared = prepare(verilog);
  core::SatRedundancyStats none, cold, warm;
  const auto reference = traced_walk(*prepared, base, &none);

  service::OracleMemo memo;
  SatRedundancyOptions with_memo = base;
  with_memo.memo = &memo;
  const auto cold_trace = traced_walk(*prepared, with_memo, &cold);
  const auto warm_trace = traced_walk(*prepared, with_memo, &warm);

  auto divergence = [&](const std::vector<std::string>& trace) {
    size_t i = 0;
    while (i < trace.size() && i < reference.size() && trace[i] == reference[i])
      ++i;
    return i;
  };
  EXPECT_TRUE(cold_trace == reference) << "cold memo diverges at query " << divergence(cold_trace);
  EXPECT_TRUE(warm_trace == reference) << "warm memo diverges at query " << divergence(warm_trace);
  EXPECT_EQ(none.portable_hits + none.portable_misses, 0u);
  EXPECT_EQ(warm.portable_hits + warm.portable_misses,
            cold.portable_hits + cold.portable_misses);
  // Only the cold run's non-definitive Unknowns (budget-exhausted) miss again.
  EXPECT_EQ(warm.portable_misses, cold.portable_misses - cold.portable_inserts);
  return warm.portable_hits - cold.portable_hits;
}

} // namespace

TEST(PortableMemo, WarmReplaysColdOnPublicCircuits) {
  for (const char* name : {"usb_funct", "ac97_ctrl"}) {
    SCOPED_TRACE(name);
    EXPECT_GT(expect_warm_memo_replays_cold(public_circuit(name)), 0u);
  }
}

TEST(PortableMemo, WarmReplaysColdOnRandomCircuits) {
  size_t replayed = 0; // some seeds never reach the memo stage
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    replayed += expect_warm_memo_replays_cold(benchgen::random_verilog(seed * 0x9e37, 8));
  }
  EXPECT_GT(replayed, 0u);
}

TEST(PortableMemo, WarmReplaysColdOnSatHeavyConfiguration) {
  // sim_max_inputs = 0 sends every cone-stage query to SAT; budget 1 leaves
  // some of them budget-exhausted (never memoized), -1 proves them all.
  for (const int64_t budget : {int64_t{1}, int64_t{-1}}) {
    SCOPED_TRACE(budget);
    SatRedundancyOptions opts;
    opts.sim_max_inputs = 0;
    opts.sat_conflict_budget = budget;
    EXPECT_GT(expect_warm_memo_replays_cold(public_circuit("wb_conmax"), opts), 0u);
  }
}

TEST(PortableMemo, SharedMemoAcrossParallelRuns) {
  // One memo shared by sat_redundancy_parallel runs at 1 and 4 threads, as
  // the service daemon shares it across jobs: after the first run every
  // consult hits, and no run's netlist moves.
  const auto prepared = prepare(public_circuit("wb_conmax"));
  auto run = [&](int threads, core::PortableDecisionMemo* memo,
                 core::SatRedundancyStats* stats) {
    const auto design = rtlil::clone_design(*prepared);
    SatRedundancyOptions opts;
    opts.memo = memo;
    *stats = core::sat_redundancy_parallel(*design->top(), opts, threads);
    return backend::write_rtlil(*design->top());
  };

  core::SatRedundancyStats stats;
  const std::string reference = run(1, nullptr, &stats);
  service::OracleMemo memo;
  EXPECT_EQ(run(1, &memo, &stats), reference);
  EXPECT_GT(stats.portable_inserts, 0u);
  for (const int threads : {4, 1}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(run(threads, &memo, &stats), reference);
    EXPECT_EQ(stats.portable_misses, 0u);
    EXPECT_GT(stats.portable_hits, 0u);
  }
}
