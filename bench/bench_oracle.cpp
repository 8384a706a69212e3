// §II oracle benchmark: the serial muxtree walk (opt::optimize_muxtrees +
// InferenceOracle) run twice over the public + industrial circuits on one
// portable decision memo — cold (empty memo, filled as the walk goes) then
// warm (the memo the cold run left) — emitting the BENCH_oracle.json schema
// (per-circuit oracle time, memo traffic, SAT effort, and a decisions_match
// differential).
//
//   ./bench_oracle [--smoke] [--json] [--filter <substr>]
//
//   --smoke   small circuit subset (<5 s) — the tier-2 CTest target. Exits
//             nonzero if any circuit's warm decisions diverge from the cold
//             run's, or if the warm memo never hit (a memo that is never
//             consulted is a regression even when decisions still match).
//   --json    print the JSON document to stdout (human table otherwise).
//   --filter  run only circuits whose name contains <substr> (the industrial
//             rows dominate a full run; iterate on a subset instead).
//
// Both arms run the same walk on clones of the same pre-optimized design;
// `*_seconds` is time spent inside oracle decide() calls, `*_pass_seconds`
// the whole walk. Decisions are traced as (control-bit name, verdict) hashes
// and compared element-wise, so decisions_match certifies bit-identical
// verdicts in query order.
#include "bench_json.hpp"
#include "benchgen/industrial.hpp"
#include "benchgen/public_bench.hpp"
#include "core/sat_redundancy.hpp"
#include "service/warm_cache.hpp"

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

  double seconds = 0;
  std::vector<uint64_t> trace;

private:
  opt::MuxtreeOracle& inner_;
};

/// One arm: the serial walk on a clone of `prepared`, timed and traced.
struct Arm {
  double seconds = 0, pass_seconds = 0;
  core::SatRedundancyStats stats;
  std::vector<uint64_t> trace;
};

Arm run_arm(const rtlil::Design& prepared, const core::SatRedundancyOptions& options) {
  Arm arm;
  const auto design = rtlil::clone_design(prepared);
  core::InferenceOracle oracle(options);
  RecordingOracle recording(oracle);
  const auto t0 = std::chrono::steady_clock::now();
  opt::optimize_muxtrees(*design->top(), recording);
  arm.pass_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  arm.seconds = recording.seconds;
  arm.stats = oracle.stats();
  arm.trace = std::move(recording.trace);
  return arm;
}

struct Row {
  std::string name;
  size_t queries = 0;
  Arm cold, warm;
  bool decisions_match = false;
};

Row run_circuit(const benchgen::BenchCircuit& circuit, util::ResourceGuard& guard) {
  Row row;
  row.name = circuit.name;
  const auto prepared = benchjson::prepare_muxtree_design(circuit.verilog);

  service::OracleMemo memo; // per circuit: the warm arm replays only its own cold run
  core::SatRedundancyOptions options;
  options.guard = &guard; // unlimited: charges totals for the resource block
  options.memo = &memo;
  row.cold = run_arm(*prepared, options);
  row.warm = run_arm(*prepared, options);

  row.queries = row.cold.trace.size();
  row.decisions_match = row.cold.trace == row.warm.trace;
  if (!row.decisions_match) {
    size_t i = 0;
    const size_t n = std::min(row.cold.trace.size(), row.warm.trace.size());
    while (i < n && row.cold.trace[i] == row.warm.trace[i])
      ++i;
    std::fprintf(stderr, "DECISION MISMATCH on %s: query %zu of %zu/%zu (cold/warm)\n",
                 row.name.c_str(), i, row.cold.trace.size(), row.warm.trace.size());
  }
  return row;
}

void print_json_row(const Row& r, bool last) {
  const core::SatRedundancyStats& cs = r.cold.stats;
  const core::SatRedundancyStats& ws = r.warm.stats;
  benchjson::JsonObject o;
  o.put("name", r.name)
      .put("queries", r.queries)
      .putf("cold_seconds", r.cold.seconds)
      .putf("warm_seconds", r.warm.seconds)
      .putf("speedup", ratio(r.cold.seconds, r.warm.seconds), 3)
      .putf("cold_pass_seconds", r.cold.pass_seconds)
      .putf("warm_pass_seconds", r.warm.pass_seconds)
      .putf("queries_per_sec_cold", ratio(double(r.queries), r.cold.seconds), 1)
      .putf("queries_per_sec_warm", ratio(double(r.queries), r.warm.seconds), 1)
      .putf("sim_filter_kill_rate", ratio(double(cs.sim_filter_kills), double(cs.queries)))
      .put("sim_filter_kills", cs.sim_filter_kills)
      .put("sim_filter_half", cs.sim_filter_half)
      .put("sat_calls", cs.sat_calls)
      .put("solver_conflicts", static_cast<unsigned long long>(cs.solver_conflicts))
      .put("memo_inserts", cs.portable_inserts)
      .put("memo_hits_cold", cs.portable_hits)
      .put("memo_hits_warm", ws.portable_hits)
      .put("memo_misses_warm", ws.portable_misses)
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
          "Serial muxtree walk over the public + industrial circuits, cold then\n"
          "warm on one portable decision memo (BENCH_oracle.json schema).\n"
          "\n"
          "  --smoke            small subset, <5 s; nonzero exit on decision\n"
          "                     divergence or a warm memo that never hit (the\n"
          "                     tier-2 CTest target)\n"
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
    // Small circuits only: comfortably under the 5 s smoke budget.
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
      std::printf("%-16s %6zu queries  cold %.4fs  warm %.4fs  speedup %5.2fx  "
                  "memo hits %zu/%zu  match %s\n",
                  r.name.c_str(), r.queries, r.cold.seconds, r.warm.seconds,
                  ratio(r.cold.seconds, r.warm.seconds), r.warm.stats.portable_hits,
                  r.warm.stats.portable_hits + r.warm.stats.portable_misses,
                  r.decisions_match ? "yes" : "NO");
    }
  }

  // The total sums every listed row (a past release shipped a total that
  // covered only a subset — keep the aggregate loop right next to the rows it
  // aggregates). Pass-time totals ride along so the Amdahl gap between
  // decide() time and whole-walk time is tracked release-over-release.
  size_t total_queries = 0, total_warm_hits = 0;
  double total_cold = 0, total_warm = 0;
  double total_cold_pass = 0, total_warm_pass = 0;
  bool all_match = true;
  for (const Row& r : rows) {
    total_queries += r.queries;
    total_warm_hits += r.warm.stats.portable_hits;
    total_cold += r.cold.seconds;
    total_warm += r.warm.seconds;
    total_cold_pass += r.cold.pass_seconds;
    total_warm_pass += r.warm.pass_seconds;
    all_match = all_match && r.decisions_match;
  }

  if (json) {
    std::printf("{\n  \"bench\": \"oracle\",\n  \"metric\": \"oracle_seconds\",\n"
                "  \"circuits\": [\n");
    for (size_t i = 0; i < rows.size(); ++i)
      print_json_row(rows[i], i + 1 == rows.size());
    std::printf("  ],\n  \"total\": {\"queries\": %zu, \"cold_seconds\": %.4f, "
                "\"warm_seconds\": %.4f, \"speedup\": %.3f, "
                "\"cold_pass_seconds\": %.4f, \"warm_pass_seconds\": %.4f, "
                "\"pass_speedup\": %.3f, \"memo_hits_warm\": %zu},\n"
                "  \"resource\": %s,\n  \"obs\": %s\n}\n",
                total_queries, total_cold, total_warm, ratio(total_cold, total_warm),
                total_cold_pass, total_warm_pass, ratio(total_cold_pass, total_warm_pass),
                total_warm_hits, benchjson::resource_json(guard.report()).c_str(),
                benchjson::obs_json(profile).c_str());
  } else {
    std::printf("\nTotal: %zu queries, cold %.4fs, warm %.4fs, speedup %.2fx\n"
                "       whole pass: cold %.4fs, warm %.4fs, speedup %.2fx\n",
                total_queries, total_cold, total_warm, ratio(total_cold, total_warm),
                total_cold_pass, total_warm_pass, ratio(total_cold_pass, total_warm_pass));
  }

  if (!all_match) {
    std::fprintf(stderr, "FAIL: warm-memo decisions diverge from the cold run\n");
    return 1;
  }
  if (total_warm_hits == 0) {
    std::fprintf(stderr, "FAIL: the warm memo never hit — the oracle stopped consulting it\n");
    return 1;
  }
  return 0;
}
