// InferenceEngine: the paper's Table I rules for OR cells plus the analogous
// rules for and/not/xor/mux/eq, propagation to fixpoint, contradiction
// detection, and engine reuse through reset().
#include "core/inference.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "rtlil/topo.hpp"

#include <gtest/gtest.h>

using namespace smartly;
using core::InferenceEngine;
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
  rtlil::SigMap sigmap;
  Fixture() { mod = design.add_module("top"); }

  Wire* w(const char* name) {
    Wire* x = mod->add_wire(name, 1);
    mod->set_port_input(x);
    return x;
  }

  std::vector<rtlil::Cell*> all_cells() const {
    std::vector<rtlil::Cell*> out;
    for (const auto& c : mod->cells())
      out.push_back(c.get());
    return out;
  }

  InferenceEngine engine() { return InferenceEngine(all_cells(), sigmap); }
};

} // namespace

// --- Table I: OR rules ------------------------------------------------------

TEST(InferenceOr, ATrueForcesOutputTrue) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(y[0]), std::make_optional(true));
  EXPECT_FALSE(e.value(SigBit(b, 0)).has_value()) << "b must stay unknown";
}

TEST(InferenceOr, BothFalseForcesOutputFalse) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), false));
  ASSERT_TRUE(e.assume(SigBit(b, 0), false));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(y[0]), std::make_optional(false));
}

TEST(InferenceOr, OutputFalseForcesBothInputsFalse) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], false));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(SigBit(a, 0)), std::make_optional(false));
  EXPECT_EQ(e.value(SigBit(b, 0)), std::make_optional(false));
}

TEST(InferenceOr, OutputTrueWithOneFalseForcesOther) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], true));
  ASSERT_TRUE(e.assume(SigBit(a, 0), false));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(SigBit(b, 0)), std::make_optional(true));
}

TEST(InferenceOr, OutputTrueAloneDecidesNothing) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], true));
  ASSERT_TRUE(e.propagate());
  EXPECT_FALSE(e.value(SigBit(a, 0)).has_value());
  EXPECT_FALSE(e.value(SigBit(b, 0)).has_value());
}

// --- AND (dual rules) -------------------------------------------------------

TEST(InferenceAnd, AFalseForcesOutputFalse) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->And(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), false));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(y[0]), std::make_optional(false));
}

TEST(InferenceAnd, OutputTrueForcesBothInputs) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->And(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(SigBit(a, 0)), std::make_optional(true));
  EXPECT_EQ(e.value(SigBit(b, 0)), std::make_optional(true));
}

TEST(InferenceAnd, OutputFalseWithOneTrueForcesOtherFalse) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->And(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], false));
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(SigBit(b, 0)), std::make_optional(false));
}

// --- NOT / XOR / MUX / EQ ---------------------------------------------------

TEST(InferenceNot, PropagatesBothDirections) {
  Fixture f;
  Wire* a = f.w("a");
  const SigSpec y = f.mod->Not(SigSpec(a));
  {
    auto e = f.engine();
    ASSERT_TRUE(e.assume(SigBit(a, 0), true));
    ASSERT_TRUE(e.propagate());
    EXPECT_EQ(e.value(y[0]), std::make_optional(false));
  }
  {
    auto e = f.engine();
    ASSERT_TRUE(e.assume(y[0], true));
    ASSERT_TRUE(e.propagate());
    EXPECT_EQ(e.value(SigBit(a, 0)), std::make_optional(false));
  }
}

TEST(InferenceXor, ForwardAndBackward) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Xor(SigSpec(a), SigSpec(b));
  {
    auto e = f.engine();
    ASSERT_TRUE(e.assume(SigBit(a, 0), true));
    ASSERT_TRUE(e.assume(SigBit(b, 0), false));
    ASSERT_TRUE(e.propagate());
    EXPECT_EQ(e.value(y[0]), std::make_optional(true));
  }
  {
    // y known and one input known: other input = y ^ input.
    auto e = f.engine();
    ASSERT_TRUE(e.assume(y[0], true));
    ASSERT_TRUE(e.assume(SigBit(a, 0), true));
    ASSERT_TRUE(e.propagate());
    EXPECT_EQ(e.value(SigBit(b, 0)), std::make_optional(false));
  }
}

TEST(InferenceMux, SelectKnownForwardsChosenInput) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  Wire* s = f.w("s");
  const SigSpec y = f.mod->Mux(SigSpec(a), SigSpec(b), SigSpec(s));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(s, 0), true)); // Y = B
  ASSERT_TRUE(e.assume(SigBit(b, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(y[0]), std::make_optional(true));
}

TEST(InferenceMux, BothInputsEqualForcesOutput) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  Wire* s = f.w("s");
  const SigSpec y = f.mod->Mux(SigSpec(a), SigSpec(b), SigSpec(s));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  ASSERT_TRUE(e.assume(SigBit(b, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(y[0]), std::make_optional(true)) << "y = s?1:1 = 1";
}

TEST(InferenceEq, SingleBitEqBehavesLikeXnor) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Eq(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], true));
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(SigBit(b, 0)), std::make_optional(true));
}

// --- chains, fixpoint, contradictions ---------------------------------------

TEST(Inference, PaperFig3Scenario) {
  // Y = S ? ((S|R) ? A : B) : C. Given S=1, infer S|R = 1.
  Fixture f;
  Wire* s = f.w("s");
  Wire* r = f.w("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(s, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(sr[0]), std::make_optional(true));
}

TEST(Inference, DeepChainPropagation) {
  // or-chain: k1 = a|b, k2 = k1|c, k3 = k2|d. a=1 forces all true.
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  Wire* c = f.w("c");
  Wire* d = f.w("d");
  const SigSpec k1 = f.mod->Or(SigSpec(a), SigSpec(b));
  const SigSpec k2 = f.mod->Or(k1, SigSpec(c));
  const SigSpec k3 = f.mod->Or(k2, SigSpec(d));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(k3[0]), std::make_optional(true));
}

TEST(Inference, BackwardThenForward) {
  // y = (a|b) & c with y=1: forces c=1 and a|b=1 (but not a or b).
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  Wire* c = f.w("c");
  const SigSpec ab = f.mod->Or(SigSpec(a), SigSpec(b));
  const SigSpec y = f.mod->And(ab, SigSpec(c));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(y[0], true));
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(SigBit(c, 0)), std::make_optional(true));
  EXPECT_EQ(e.value(ab[0]), std::make_optional(true));
  EXPECT_FALSE(e.value(SigBit(a, 0)).has_value());
}

TEST(Inference, ContradictionOnAssume) {
  Fixture f;
  Wire* a = f.w("a");
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  EXPECT_FALSE(e.assume(SigBit(a, 0), false));
}

TEST(Inference, ContradictionThroughGate) {
  // a=1 forces y=a|b=1; assuming y=0 must contradict during propagate.
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  ASSERT_TRUE(e.assume(y[0], false));
  EXPECT_FALSE(e.propagate());
}

TEST(Inference, ConstantBitsAreKnownImplicitly) {
  // y = a | 1 is constant true regardless of assumptions.
  Fixture f;
  Wire* a = f.w("a");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(rtlil::State::S1));
  auto e = f.engine();
  ASSERT_TRUE(e.propagate());
  EXPECT_EQ(e.value(y[0]), std::make_optional(true));
}

TEST(Inference, ValueOfUnseenBitIsUnknown) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* other = f.mod->add_wire("other", 1);
  const SigSpec y = f.mod->Not(SigSpec(a));
  (void)y;
  auto e = f.engine();
  ASSERT_TRUE(e.propagate());
  EXPECT_FALSE(e.value(SigBit(other, 0)).has_value());
}

TEST(Inference, NumKnownGrowsWithPropagation) {
  Fixture f;
  Wire* a = f.w("a");
  Wire* b = f.w("b");
  const SigSpec y = f.mod->Or(SigSpec(a), SigSpec(b));
  (void)y;
  auto e = f.engine();
  ASSERT_TRUE(e.assume(SigBit(a, 0), true));
  const size_t before = e.num_known();
  ASSERT_TRUE(e.propagate());
  EXPECT_GT(e.num_known(), before);
}

// --- InferenceEngine::reset --------------------------------------------------

TEST(InferenceEngineReset, ReusedEngineMatchesFreshEngine) {
  Fixture f;
  Wire* s = f.w("s");
  Wire* r = f.w("r");
  const SigSpec sr = f.mod->Or(SigSpec(s), SigSpec(r));
  const SigSpec srr = f.mod->And(sr, SigSpec(r));
  f.mod->connect(SigSpec(f.mod->add_wire("y", 1)), srr);

  rtlil::NetlistIndex index(*f.mod);
  const std::vector<rtlil::Cell*> all_cells = f.all_cells();

  InferenceEngine reused;
  for (int round = 0; round < 3; ++round) {
    reused.reset(all_cells, index.sigmap());
    InferenceEngine fresh(all_cells, index.sigmap());
    const bool value = round % 2 == 0;
    EXPECT_EQ(reused.assume(index.sigmap()(SigBit(s, 0)), value),
              fresh.assume(index.sigmap()(SigBit(s, 0)), value));
    EXPECT_EQ(reused.propagate(), fresh.propagate());
    EXPECT_EQ(reused.value(index.sigmap()(sr[0])), fresh.value(index.sigmap()(sr[0])));
    EXPECT_EQ(reused.value(index.sigmap()(srr[0])), fresh.value(index.sigmap()(srr[0])));
  }
}
