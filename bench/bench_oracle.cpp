// Oracle engine benchmark: from-scratch InferenceOracle vs IncrementalOracle
// over the public + industrial circuits, emitting the BENCH_oracle.json
// schema (per-circuit speedup, cache hit rates, SAT effort, and a
// decisions_match differential).
//
//   ./bench_oracle [--smoke] [--json] [--filter <substr>]
//
//   --smoke   small circuit subset (<5 s) — the tier-2 CTest target. Exits
//             nonzero if any circuit's incremental decisions diverge from the
//             baseline's, or if the caches never hit (a dead cache is a
//             regression even when decisions still match).
//   --json    print the JSON document to stdout (human table otherwise).
//   --filter  run only circuits whose name contains <substr> (the industrial
//             rows dominate a full run; iterate on a subset instead).
//
// Both arms run the same walk (opt::optimize_muxtrees) on clones of the same
// pre-optimized design; `*_seconds` is time spent inside oracle decide()
// calls, `*_pass_seconds` the whole walk. Decisions are traced as
// (control-bit name, verdict) hashes and compared element-wise, so
// decisions_match certifies bit-identical verdicts in query order.
#include "bench_json.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "core/incremental_oracle.hpp"
#include "core/sat_redundancy.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace smartly;
using benchjson::ratio;

namespace {

/// Forwards to an inner oracle, timing decide() and recording a decision
/// trace keyed on stable names (wire name + offset), so traces from two
/// design clones are comparable.
class RecordingOracle final : public opt::MuxtreeOracle {
public:
  explicit RecordingOracle(opt::MuxtreeOracle& inner) : inner_(inner) {}

  void begin_module(rtlil::Module& module) override { inner_.begin_module(module); }
  void begin_module(rtlil::Module& module, const rtlil::NetlistIndex& index) override {
    inner_.begin_module(module, index);
  }

  opt::CtrlDecision decide(rtlil::SigBit ctrl, const opt::KnownMap& known) override {
    const auto t0 = std::chrono::steady_clock::now();
    const opt::CtrlDecision d = inner_.decide(ctrl, known);
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    uint64_t h = ctrl.is_wire()
                     ? hash_combine(std::hash<std::string>{}(ctrl.wire->name()),
                                    static_cast<uint64_t>(ctrl.offset))
                     : hash_mix(static_cast<uint64_t>(ctrl.data));
    trace.push_back(hash_combine(h, static_cast<uint64_t>(d)));
    return d;
  }

  void notify_cell_mutated(rtlil::Cell* cell) override { inner_.notify_cell_mutated(cell); }
  void notify_cell_removed(rtlil::Cell* cell) override { inner_.notify_cell_removed(cell); }

  double seconds = 0;
  std::vector<uint64_t> trace;

private:
  opt::MuxtreeOracle& inner_;
};

struct Row {
  std::string name;
  size_t queries = 0;
  double baseline_seconds = 0, incremental_seconds = 0;
  double baseline_pass_seconds = 0, incremental_pass_seconds = 0;
  core::SatRedundancyStats base_stats;
  core::IncrementalOracleStats incr_stats;
  bool decisions_match = false;
};

Row run_circuit(const benchgen::BenchCircuit& circuit, util::ResourceGuard& guard) {
  Row row;
  row.name = circuit.name;
  const auto prepared = benchjson::prepare_muxtree_design(circuit.verilog);

  const auto baseline_design = rtlil::clone_design(*prepared);
  core::SatRedundancyOptions base_options;
  base_options.guard = &guard; // unlimited: charges totals for the resource block
  core::InferenceOracle baseline_oracle(base_options);
  RecordingOracle baseline(baseline_oracle);
  auto t0 = std::chrono::steady_clock::now();
  opt::optimize_muxtrees(*baseline_design->top(), baseline);
  row.baseline_pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto incremental_design = rtlil::clone_design(*prepared);
  core::IncrementalOracleOptions incr_options;
  incr_options.base = base_options;
  core::IncrementalOracle incremental_oracle(incr_options);
  RecordingOracle incremental(incremental_oracle);
  t0 = std::chrono::steady_clock::now();
  opt::optimize_muxtrees(*incremental_design->top(), incremental);
  row.incremental_pass_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  row.queries = baseline.trace.size();
  row.baseline_seconds = baseline.seconds;
  row.incremental_seconds = incremental.seconds;
  row.base_stats = baseline_oracle.stats();
  row.incr_stats = incremental_oracle.stats();
  row.decisions_match = baseline.trace == incremental.trace;
  if (!row.decisions_match) {
    size_t i = 0;
    const size_t n = std::min(baseline.trace.size(), incremental.trace.size());
    while (i < n && baseline.trace[i] == incremental.trace[i])
      ++i;
    std::fprintf(stderr,
                 "DECISION MISMATCH on %s: query %zu of %zu/%zu (baseline/incremental)\n",
                 row.name.c_str(), i, baseline.trace.size(), incremental.trace.size());
  }
  return row;
}

void print_json_row(const Row& r, bool last) {
  const auto& is = r.incr_stats;
  const double cone_total = double(is.cone_cache_hits + is.cone_cache_misses);
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("queries", r.queries)
      .putf("baseline_seconds", r.baseline_seconds)
      .putf("incremental_seconds", r.incremental_seconds)
      .putf("speedup", ratio(r.baseline_seconds, r.incremental_seconds), 3)
      .putf("baseline_pass_seconds", r.baseline_pass_seconds)
      .putf("incremental_pass_seconds", r.incremental_pass_seconds)
      .putf("queries_per_sec_baseline", ratio(double(r.queries), r.baseline_seconds), 1)
      .putf("queries_per_sec_incremental", ratio(double(r.queries), r.incremental_seconds), 1)
      .putf("sim_filter_kill_rate", ratio(double(is.sim_filter_kills), double(is.queries)))
      .putf("cone_cache_hit_rate", ratio(double(is.cone_cache_hits), cone_total))
      .putf("subgraph_cache_hit_rate", ratio(double(is.decision_cache_hits), double(is.queries)))
      .put("sim_filter_kills", is.sim_filter_kills)
      .put("sim_filter_half", is.sim_filter_half)
      .put("sat_calls_baseline", r.base_stats.sat_calls)
      .put("sat_calls_incremental", is.sat_calls)
      .put("solver_conflicts_baseline", static_cast<unsigned long long>(r.base_stats.solver_conflicts))
      .put("solver_conflicts_incremental", static_cast<unsigned long long>(is.solver_conflicts))
      .put("cells_remapped", is.cells_remapped)
      .put("decisions_match", r.decisions_match);
  std::printf("    %s%s\n", o.str().c_str(), last ? "" : ",");
}

} // namespace

int main(int argc, char** argv) {
  bool smoke = false, json = false;
  std::string filter, trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else if (std::strcmp(argv[i], "--json") == 0)
      json = true;
    else if (std::strcmp(argv[i], "--filter") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_oracle: --filter requires a value\n");
        return 2;
      }
      filter = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_oracle: --trace-out requires a value\n");
        return 2;
      }
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: bench_oracle [--smoke] [--json] [--filter <substr>]\n"
          "\n"
          "From-scratch InferenceOracle vs IncrementalOracle differential over the\n"
          "public + industrial circuits (BENCH_oracle.json schema).\n"
          "\n"
          "  --smoke            small subset, <5 s; nonzero exit on decision\n"
          "                     divergence or dead caches (the tier-2 CTest target)\n"
          "  --json             emit the JSON document instead of the human table\n"
          "  --filter <substr>  run only circuits whose name contains <substr>\n"
          "                     (industrial runs dominate a full run; e.g.\n"
          "                     --filter industrial or --filter tv80)\n"
          "  --trace-out FILE   write a Chrome trace-event JSON of the run\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_oracle: unknown option '%s' (try --help)\n", argv[i]);
      return 2;
    }
  }

  std::vector<benchgen::BenchCircuit> circuits;
  if (smoke) {
    // Small circuits only: representative of all three cache paths but
    // comfortably under the 5 s smoke budget.
    for (const auto& c : benchgen::public_suite())
      if (c.name == "pci_bridge32" || c.name == "mem_ctrl" || c.name == "tv80" ||
          c.name == "ac97_ctrl")
        circuits.push_back(c);
  } else {
    circuits = benchgen::public_suite();
    const auto industrial = benchgen::industrial_suite();
    circuits.push_back(industrial[0]); // industrial_tp0
    circuits.push_back(industrial[1]); // industrial_tp1
  }
  benchjson::apply_name_filter(circuits, filter, "bench_oracle");

  benchjson::TraceOutput trace_output;
  trace_output.arm(trace_path);
  const obs::Span root_span("bench", "bench_oracle");
  obs::StageProfile profile;

  util::ResourceGuard guard; // unbudgeted: the resource block reports charged totals
  std::vector<Row> rows;
  rows.reserve(circuits.size());
  for (const auto& c : circuits) {
    {
      const auto stage = profile.scope(c.name);
      const obs::Span span("bench", c.name);
      rows.push_back(run_circuit(c, guard));
    }
    if (!json) {
      const Row& r = rows.back();
      std::printf("%-16s %6zu queries  base %.4fs  incr %.4fs  speedup %5.2fx  "
                  "cone %4.0f%%  exact %4.0f%%  match %s\n",
                  r.name.c_str(), r.queries, r.baseline_seconds, r.incremental_seconds,
                  ratio(r.baseline_seconds, r.incremental_seconds),
                  100.0 * ratio(double(r.incr_stats.cone_cache_hits),
                                double(r.incr_stats.cone_cache_hits +
                                       r.incr_stats.cone_cache_misses)),
                  100.0 * ratio(double(r.incr_stats.decision_cache_hits),
                                double(r.incr_stats.queries)),
                  r.decisions_match ? "yes" : "NO");
    }
  }

  // The total sums every listed row (a past release shipped a total that
  // covered only a subset — keep the aggregate loop right next to the rows it
  // aggregates). Pass-time totals ride along so the Amdahl gap between
  // decide() time and whole-walk time is tracked release-over-release.
  size_t total_queries = 0;
  double total_base = 0, total_incr = 0;
  double total_base_pass = 0, total_incr_pass = 0;
  bool all_match = true;
  size_t total_cache_hits = 0;
  for (const Row& r : rows) {
    total_queries += r.queries;
    total_base += r.baseline_seconds;
    total_incr += r.incremental_seconds;
    total_base_pass += r.baseline_pass_seconds;
    total_incr_pass += r.incremental_pass_seconds;
    all_match = all_match && r.decisions_match;
    total_cache_hits += r.incr_stats.cone_cache_hits + r.incr_stats.decision_cache_hits;
  }

  if (json) {
    std::printf("{\n  \"bench\": \"oracle\",\n  \"metric\": \"oracle_seconds\",\n"
                "  \"circuits\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      print_json_row(rows[i], i + 1 == rows.size());
    std::printf("  ],\n  \"total\": {\"queries\": %zu, \"baseline_seconds\": %.4f, "
                "\"incremental_seconds\": %.4f, \"speedup\": %.3f, "
                "\"baseline_pass_seconds\": %.4f, \"incremental_pass_seconds\": %.4f, "
                "\"pass_speedup\": %.3f},\n  \"resource\": %s,\n  \"obs\": %s\n}\n",
                total_queries, total_base, total_incr, ratio(total_base, total_incr),
                total_base_pass, total_incr_pass, ratio(total_base_pass, total_incr_pass),
                benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("\nTotal: %zu queries, baseline %.4fs, incremental %.4fs, speedup %.2fx "
                "(oracle trajectory: 2.7x)\n"
                "       whole pass: baseline %.4fs, incremental %.4fs, speedup %.2fx\n",
                total_queries, total_base, total_incr, ratio(total_base, total_incr),
                total_base_pass, total_incr_pass, ratio(total_base_pass, total_incr_pass));
  }

  if (!all_match) {
    std::fprintf(stderr, "FAIL: incremental oracle decisions diverge from baseline\n");
    return 1;
  }
  if (total_cache_hits == 0) {
    std::fprintf(stderr, "FAIL: caches never hit — incrementality regressed\n");
    return 1;
  }
  return 0;
}
