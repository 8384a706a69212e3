// Combinational equivalence checking: positive cases, true inequivalences
// with counterexample validation, interface mismatches, and dff handling.
#include "cec/cec.hpp"
#include "rtlil/module.hpp"
#include "sim/eval.hpp"
#include "util/budget.hpp"
#include "verilog/elaborate.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace smartly;
using rtlil::Const;
using rtlil::Design;
using rtlil::Module;
using rtlil::SigSpec;
using rtlil::Wire;

namespace {

cec::CecResult check(const std::string& gold_src, const std::string& gate_src) {
  auto gold = verilog::read_verilog(gold_src);
  auto gate = verilog::read_verilog(gate_src);
  return cec::check_equivalence(*gold->top(), *gate->top());
}

/// n independent outputs, each a majority of its own three inputs, in two
/// forms whose AIGs strash apart: every output's miter leg needs SAT.
std::string majority_src(int n, bool factored) {
  const std::string w = "[" + std::to_string(n - 1) + ":0]";
  return "module top(a, b, c, y);\n  input " + w + " a, b, c;\n  output " + w +
         " y;\n  assign y = " +
         (factored ? "(a & (b | c)) | (b & c)" : "(a & b) | (b & c) | (a & c)") +
         ";\nendmodule\n";
}

} // namespace

TEST(Cec, IdenticalDesignsAreEquivalent) {
  const char* src = R"(
    module top(a, b, y); input [3:0] a, b; output [3:0] y;
      assign y = a & b;
    endmodule
  )";
  EXPECT_TRUE(check(src, src).equivalent);
}

TEST(Cec, StructurallyDifferentButEqualFunctions) {
  // De Morgan: ~(a | b) == ~a & ~b.
  const auto r = check(R"(
    module top(a, b, y); input [3:0] a, b; output [3:0] y;
      assign y = ~(a | b);
    endmodule
  )",
                       R"(
    module top(a, b, y); input [3:0] a, b; output [3:0] y;
      assign y = ~a & ~b;
    endmodule
  )");
  EXPECT_TRUE(r.equivalent);
}

TEST(Cec, MuxVersusBooleanForm) {
  // s ? a : b == (a & {4{s}}) | (b & ~{4{s}}).
  const auto r = check(R"(
    module top(s, a, b, y); input s; input [3:0] a, b; output [3:0] y;
      assign y = s ? a : b;
    endmodule
  )",
                       R"(
    module top(s, a, b, y); input s; input [3:0] a, b; output [3:0] y;
      assign y = (a & {4{s}}) | (b & ~{4{s}});
    endmodule
  )");
  EXPECT_TRUE(r.equivalent);
}

TEST(Cec, DetectsInequivalence) {
  const auto r = check(R"(
    module top(a, b, y); input [3:0] a, b; output [3:0] y;
      assign y = a & b;
    endmodule
  )",
                       R"(
    module top(a, b, y); input [3:0] a, b; output [3:0] y;
      assign y = a | b;
    endmodule
  )");
  EXPECT_FALSE(r.equivalent);
  EXPECT_FALSE(r.failing_output.empty());
  EXPECT_FALSE(r.counterexample.empty());
}

TEST(Cec, CounterexampleActuallyDistinguishes) {
  const char* gold_src = R"(
    module top(a, b, y); input [3:0] a, b; output [4:0] y;
      assign y = a + b;
    endmodule
  )";
  const char* gate_src = R"(
    module top(a, b, y); input [3:0] a, b; output [4:0] y;
      assign y = a + b + 5'd1;
    endmodule
  )";
  auto gold = verilog::read_verilog(gold_src);
  auto gate = verilog::read_verilog(gate_src);
  const auto r = cec::check_equivalence(*gold->top(), *gate->top());
  ASSERT_FALSE(r.equivalent);

  // Replay the counterexample on both designs; outputs must differ.
  auto eval_output = [&](Module& m) {
    sim::Evaluator ev(m);
    for (const auto& [name, value] : r.counterexample) {
      // Counterexample names are per-bit ("a[2]") or whole wires; support both.
      const auto lb = name.find('[');
      const std::string wname = lb == std::string::npos ? name : name.substr(0, lb);
      Wire* w = m.wire(wname);
      if (!w)
        continue;
      if (lb == std::string::npos) {
        ev.set_input(w, Const(value ? 1 : 0, w->width()));
      } else {
        const int idx = std::stoi(name.substr(lb + 1));
        ev.set_bit(rtlil::SigBit(w, idx), value ? rtlil::State::S1 : rtlil::State::S0);
      }
    }
    ev.run();
    return ev.value(SigSpec(m.wire("y")));
  };
  const Const gold_y = eval_output(*gold->top());
  const Const gate_y = eval_output(*gate->top());
  EXPECT_NE(gold_y.to_string(), gate_y.to_string());
}

TEST(Cec, SubtleSingleMintermBug) {
  // Differs only at a=15, b=15: SAT must find the needle.
  const auto r = check(R"(
    module top(a, b, y); input [3:0] a, b; output y;
      assign y = (a == 4'hf) & (b == 4'hf);
    endmodule
  )",
                       R"(
    module top(a, b, y); input [3:0] a, b; output y;
      assign y = 1'b0;
    endmodule
  )");
  EXPECT_FALSE(r.equivalent);
}

TEST(Cec, DffQTreatedAsFreeInput) {
  // Same combinational function of q: equivalent even though q is state.
  const char* src = R"(
    module top(clk, d, y); input clk; input [3:0] d; output [3:0] y;
      reg [3:0] q;
      always @(posedge clk) q <= d;
      assign y = q ^ d;
    endmodule
  )";
  EXPECT_TRUE(check(src, src).equivalent);
}

TEST(Cec, DffDConeIsChecked) {
  // Designs differ only in the D-cone (next-state function): must be caught.
  const auto r = check(R"(
    module top(clk, d, y); input clk; input [3:0] d; output [3:0] y;
      reg [3:0] q;
      always @(posedge clk) q <= d;
      assign y = q;
    endmodule
  )",
                       R"(
    module top(clk, d, y); input clk; input [3:0] d; output [3:0] y;
      reg [3:0] q;
      always @(posedge clk) q <= d + 4'd1;
      assign y = q;
    endmodule
  )");
  EXPECT_FALSE(r.equivalent);
}

TEST(Cec, MismatchedPortsThrow) {
  EXPECT_THROW(check(R"(
    module top(a, y); input [3:0] a; output [3:0] y;
      assign y = a;
    endmodule
  )",
                     R"(
    module top(a, b, y); input [3:0] a, b; output [3:0] y;
      assign y = a & b;
    endmodule
  )"),
               std::invalid_argument);
}

TEST(Cec, MismatchedWidthsThrow) {
  EXPECT_THROW(check(R"(
    module top(a, y); input [3:0] a; output [3:0] y;
      assign y = a;
    endmodule
  )",
                     R"(
    module top(a, y); input [7:0] a; output [7:0] y;
      assign y = a;
    endmodule
  )"),
               std::invalid_argument);
}

TEST(Cec, ConstantOutputsCompared) {
  const auto eq = check(R"(
    module top(y); output [3:0] y; assign y = 4'd5; endmodule
  )",
                        R"(
    module top(y); output [3:0] y; assign y = 4'd5; endmodule
  )");
  EXPECT_TRUE(eq.equivalent);
  const auto ne = check(R"(
    module top(y); output [3:0] y; assign y = 4'd5; endmodule
  )",
                        R"(
    module top(y); output [3:0] y; assign y = 4'd6; endmodule
  )");
  EXPECT_FALSE(ne.equivalent);
}

TEST(Cec, WideArithmeticEquivalence) {
  // 16-bit adder vs its two-halves-with-carry decomposition.
  const auto r = check(R"(
    module top(a, b, y); input [15:0] a, b; output [15:0] y;
      assign y = a + b;
    endmodule
  )",
                       R"(
    module top(a, b, y); input [15:0] a, b; output [15:0] y;
      wire [8:0] lo;
      assign lo = a[7:0] + b[7:0];
      wire [7:0] hi;
      assign hi = a[15:8] + b[15:8] + {7'b0, lo[8]};
      assign y = {hi, lo[7:0]};
    endmodule
  )");
  EXPECT_TRUE(r.equivalent);
}

TEST(Cec, PerOutputCostIndependentOfEarlierOutputs) {
  // Proving one output must not get dearer because other outputs were
  // proven before it: solver work grows linearly in the output count.
  auto propagations = [](int n) {
    auto gold = verilog::read_verilog(majority_src(n, false));
    auto gate = verilog::read_verilog(majority_src(n, true));
    util::ResourceGuard guard;
    cec::CecOptions options;
    options.guard = &guard;
    EXPECT_TRUE(cec::check_equivalence(*gold->top(), *gate->top(), options).equivalent);
    return guard.report().propagations;
  };
  const uint64_t p8 = propagations(8);
  const uint64_t p64 = propagations(64);
  ASSERT_GT(p8, 0u);
  EXPECT_LE(p64, 10 * p8) << "n=8: " << p8 << " propagations, n=64: " << p64;
}

TEST(Cec, ConflictBudgetDegradesToInconclusive) {
  auto gold = verilog::read_verilog(majority_src(1, false));
  auto gate = verilog::read_verilog(majority_src(1, true));

  // The miter needs search: proving it takes at least one conflict.
  util::ResourceGuard guard;
  cec::CecOptions options;
  options.guard = &guard;
  EXPECT_TRUE(cec::check_equivalence(*gold->top(), *gate->top(), options).equivalent);
  ASSERT_GE(guard.report().conflicts, 1u);

  options.conflict_budget = 0;
  const auto r = cec::check_equivalence(*gold->top(), *gate->top(), options);
  EXPECT_FALSE(r.equivalent);
  EXPECT_TRUE(r.inconclusive);
  EXPECT_FALSE(r.failing_output.empty());
  EXPECT_TRUE(r.counterexample.empty());
}
