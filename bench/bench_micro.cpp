// Component-level microbenchmarks (google-benchmark): the cost centres of
// the smaRTLy pipeline — frontend elaboration, aigmap bit-blasting, SAT
// solving, sub-graph extraction, inference propagation, ADD construction,
// and the two engines end to end.
#include "aig/aigmap.hpp"
#include "backend/aiger.hpp"
#include "backend/write_verilog.hpp"
#include "cec/cec.hpp"
#include "opt/opt_reduce.hpp"
#include "aig/cnf.hpp"
#include "benchgen/public_bench.hpp"
#include "benchgen/random_circuit.hpp"
#include "core/add.hpp"
#include "core/smartly_pass.hpp"
#include "core/inference.hpp"
#include "core/mux_restructure.hpp"
#include "core/sat_redundancy.hpp"
#include "core/subgraph.hpp"
#include "opt/pipeline.hpp"
#include "sat/solver.hpp"
#include "verilog/elaborate.hpp"

#include <benchmark/benchmark.h>

using namespace smartly;

namespace {

std::string medium_source() {
  benchgen::Profile p;
  p.case_chains = 4;
  p.case_sel_min = 3;
  p.case_sel_max = 4;
  p.dependent = 4;
  p.same_ctrl = 3;
  p.decoders = 2;
  p.datapath = 3;
  p.width = 16;
  return benchgen::generate_circuit("micro", p, 0xBEEF).verilog;
}

void BM_FrontendReadVerilog(benchmark::State& state) {
  const std::string src = medium_source();
  for (auto _ : state) {
    auto d = verilog::read_verilog(src);
    benchmark::DoNotOptimize(d->top()->cell_count());
  }
}
BENCHMARK(BM_FrontendReadVerilog)->Unit(benchmark::kMillisecond);

void BM_Aigmap(benchmark::State& state) {
  auto d = verilog::read_verilog(medium_source());
  for (auto _ : state) {
    const auto m = aig::aigmap(*d->top());
    benchmark::DoNotOptimize(m.aig.num_ands());
  }
}
BENCHMARK(BM_Aigmap)->Unit(benchmark::kMillisecond);

void BM_CoarseOpt(benchmark::State& state) {
  const std::string src = medium_source();
  for (auto _ : state) {
    state.PauseTiming();
    auto d = verilog::read_verilog(src);
    state.ResumeTiming();
    opt::coarse_opt(*d->top());
    benchmark::DoNotOptimize(d->top()->cell_count());
  }
}
BENCHMARK(BM_CoarseOpt)->Unit(benchmark::kMillisecond);

void BM_BaselineOptMuxtree(benchmark::State& state) {
  const std::string src = medium_source();
  for (auto _ : state) {
    state.PauseTiming();
    auto d = verilog::read_verilog(src);
    opt::coarse_opt(*d->top());
    state.ResumeTiming();
    opt::yosys_flow(*d->top());
    benchmark::DoNotOptimize(d->top()->cell_count());
  }
}
BENCHMARK(BM_BaselineOptMuxtree)->Unit(benchmark::kMillisecond);

void BM_SatRedundancy(benchmark::State& state) {
  const std::string src = medium_source();
  for (auto _ : state) {
    state.PauseTiming();
    auto d = verilog::read_verilog(src);
    opt::coarse_opt(*d->top());
    state.ResumeTiming();
    const auto stats = core::sat_redundancy(*d->top(), {});
    benchmark::DoNotOptimize(stats.queries);
  }
}
BENCHMARK(BM_SatRedundancy)->Unit(benchmark::kMillisecond);

void BM_MuxRestructure(benchmark::State& state) {
  const std::string src = medium_source();
  for (auto _ : state) {
    state.PauseTiming();
    auto d = verilog::read_verilog(src);
    opt::coarse_opt(*d->top());
    state.ResumeTiming();
    const auto stats = core::mux_restructure(*d->top(), {});
    benchmark::DoNotOptimize(stats.trees_rebuilt);
  }
}
BENCHMARK(BM_MuxRestructure)->Unit(benchmark::kMillisecond);

// --- SAT solver ---------------------------------------------------------------

void BM_SatSolverPigeonhole(benchmark::State& state) {
  // n pigeons, n-1 holes: classically hard UNSAT instance family.
  const int n = int(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    std::vector<std::vector<sat::Var>> v;
    v.resize(size_t(n));
    for (int p = 0; p < n; ++p)
      for (int h = 0; h < n - 1; ++h)
        v[size_t(p)].push_back(s.new_var());
    for (int p = 0; p < n; ++p) {
      std::vector<sat::Lit> clause;
      for (int h = 0; h < n - 1; ++h)
        clause.push_back(sat::mk_lit(v[size_t(p)][size_t(h)]));
      s.add_clause(std::move(clause));
    }
    for (int h = 0; h < n - 1; ++h)
      for (int p1 = 0; p1 < n; ++p1)
        for (int p2 = p1 + 1; p2 < n; ++p2)
          s.add_clause(~sat::mk_lit(v[size_t(p1)][size_t(h)]),
                       ~sat::mk_lit(v[size_t(p2)][size_t(h)]));
    const auto r = s.solve();
    if (r != sat::Result::Unsat)
      state.SkipWithError("pigeonhole must be UNSAT");
  }
}
BENCHMARK(BM_SatSolverPigeonhole)->Arg(7)->Arg(8)->Arg(9);

void BM_SatMiterEquivalent(benchmark::State& state) {
  // Miter of a circuit against itself after strash: UNSAT proof workload
  // representative of the per-query cost in §II.
  rtlil::Design d;
  rtlil::Module* m = benchgen::random_netlist(d, "m", 31, int(state.range(0)));
  const auto am = aig::aigmap(*m);
  for (auto _ : state) {
    sat::Solver s;
    aig::ConeCnfEncoder enc(s, am.aig);
    // Assert output0 != output0 (trivially UNSAT but exercises encode+solve).
    if (am.aig.num_outputs() == 0) {
      state.SkipWithError("no outputs");
      break;
    }
    const sat::Lit o = enc.ensure(am.aig.output(0));
    const auto r = s.solve({o, ~o});
    if (r != sat::Result::Unsat)
      state.SkipWithError("x & !x must be UNSAT");
  }
}
BENCHMARK(BM_SatMiterEquivalent)->Arg(50)->Arg(200);

// --- core data structures ------------------------------------------------------

void BM_SubgraphExtraction(benchmark::State& state) {
  auto d = verilog::read_verilog(medium_source());
  rtlil::Module& top = *d->top();
  opt::coarse_opt(top);
  const rtlil::NetlistIndex index(top);
  // Pick the first mux control bit as the target.
  rtlil::SigBit target;
  for (const auto& c : top.cells())
    if (c->type() == rtlil::CellType::Mux) {
      target = index.sigmap()(c->port(rtlil::Port::S)[0]);
      break;
    }
  for (auto _ : state) {
    const auto sg = core::extract_subgraph(top, index, target, {}, {});
    benchmark::DoNotOptimize(sg.cells.size());
  }
}
BENCHMARK(BM_SubgraphExtraction);

void BM_AddBuildGreedy(benchmark::State& state) {
  const int bits = int(state.range(0));
  Rng rng(99);
  std::vector<int> table(size_t(1) << bits);
  for (auto& t : table)
    t = int(rng.range(0, 7));
  for (auto _ : state) {
    const auto add = core::build_add(table, bits);
    benchmark::DoNotOptimize(add.internal_nodes());
  }
}
BENCHMARK(BM_AddBuildGreedy)->Arg(4)->Arg(8)->Arg(12);

void BM_InferencePropagation(benchmark::State& state) {
  // Long or-chain: worst-case linear propagation front.
  rtlil::Design d;
  rtlil::Module* m = d.add_module("chain");
  rtlil::Wire* a = m->add_wire("a", 1);
  m->set_port_input(a);
  rtlil::SigSpec acc(a);
  const int n = int(state.range(0));
  for (int i = 0; i < n; ++i) {
    rtlil::Wire* w = m->add_wire("w" + std::to_string(i), 1);
    m->set_port_input(w);
    acc = m->Or(acc, rtlil::SigSpec(w));
  }
  rtlil::Wire* y = m->add_wire("y", 1);
  m->set_port_output(y);
  m->connect(rtlil::SigSpec(y), acc);
  const rtlil::SigMap sigmap(*m);
  std::vector<rtlil::Cell*> cells;
  for (const auto& c : m->cells())
    cells.push_back(c.get());

  for (auto _ : state) {
    core::InferenceEngine e(cells, sigmap);
    e.assume(rtlil::SigBit(a, 0), true);
    const bool ok = e.propagate();
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(e.num_known());
  }
}
BENCHMARK(BM_InferencePropagation)->Arg(64)->Arg(512);

void BM_CecSelfCheck(benchmark::State& state) {
  // Equivalence of a design against its smartly-optimized form: the
  // dominating verification cost in the table benches (--check).
  const std::string src = medium_source();
  auto gold = verilog::read_verilog(src);
  auto gate = verilog::read_verilog(src);
  core::smartly_flow(*gate->top());
  for (auto _ : state) {
    const auto r = cec::check_equivalence(*gold->top(), *gate->top());
    if (!r.equivalent)
      state.SkipWithError("optimizer broke the design");
  }
}
BENCHMARK(BM_CecSelfCheck)->Unit(benchmark::kMillisecond);

void BM_WriteVerilog(benchmark::State& state) {
  auto d = verilog::read_verilog(medium_source());
  for (auto _ : state) {
    const std::string text = backend::write_verilog(*d->top());
    benchmark::DoNotOptimize(text.size());
  }
}
BENCHMARK(BM_WriteVerilog)->Unit(benchmark::kMillisecond);

void BM_AigerRoundTrip(benchmark::State& state) {
  auto d = verilog::read_verilog(medium_source());
  const auto m = aig::aigmap(*d->top());
  for (auto _ : state) {
    const std::string text = backend::write_aiger_binary(m.aig);
    const aig::Aig back = backend::read_aiger(text);
    benchmark::DoNotOptimize(back.num_ands());
  }
}
BENCHMARK(BM_AigerRoundTrip)->Unit(benchmark::kMillisecond);

void BM_OptReduce(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rtlil::Design d;
    rtlil::Module* m = benchgen::random_netlist(d, "m", 77, 200);
    state.ResumeTiming();
    const auto stats = opt::opt_reduce(*m);
    benchmark::DoNotOptimize(stats.pmux_branches_merged);
  }
}
BENCHMARK(BM_OptReduce);

} // namespace

BENCHMARK_MAIN();
