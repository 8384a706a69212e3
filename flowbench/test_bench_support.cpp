// Tests of the benchmark's own arithmetic (bench_support.hpp): self-time
// subtraction, the base of every *_frac and *_util ratio, fail counting,
// the median, the Chrome trace export and the seeded identifier renaming.
// Exits non-zero on any failure.
#include "bench_support.hpp"

#include <cmath>
#include <cstdio>
#include <string>

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "test_bench_support:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using flowbench::SpanRecord;

SpanRecord span(const char* name, int parent, double start, double end) {
  SpanRecord s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

void self_time_subtracts_direct_children() {
  // design [0,10] > read [0,2], flow [3,9] > rebuild [3,4], sat [5,8]
  const std::vector<SpanRecord> spans = {
      span("design.x", -1, 0, 10), span("verilog.read", 0, 0, 2),
      span("flow.x", 0, 3, 9),     span("core.rebuild", 2, 3, 4),
      span("core.sat", 2, 5, 8),
  };
  const std::vector<double> self = flowbench::self_times(spans);
  EXPECT(near(self[0], 10 - 2 - 6)); // grandchildren are not subtracted twice
  EXPECT(near(self[1], 2));
  EXPECT(near(self[2], 6 - 1 - 3));
  EXPECT(near(self[3], 1));
  EXPECT(near(self[4], 3));
}

void self_time_counts_overlapping_children_once() {
  const std::vector<SpanRecord> spans = {
      span("a.root", -1, 0, 10), span("b.x", 0, 1, 5), span("b.y", 0, 4, 6),
      span("b.z", 0, 9, 12), // sticks out of its parent: clipped to [9,10]
  };
  const std::vector<double> self = flowbench::self_times(spans);
  EXPECT(near(self[0], 10 - 5 - 1));
  EXPECT(spans[3].layer() == "b");
}

void ratios_use_their_stated_base() {
  EXPECT(near(flowbench::frac(3, 4), 0.75));
  EXPECT(near(flowbench::frac(5, 0), 0.0)); // nothing attempted: 0, not NaN
  // util = cpu / (wall * threads): 4 threads busy for 2 s of a 1 s call.
  EXPECT(near(flowbench::util(2.0, 1.0, 4), 0.5));
  EXPECT(near(flowbench::util(1.0, 1.0, 0), 1.0)); // threads <= 0 counts as one
  EXPECT(near(flowbench::util(1.0, 0.0, 4), 0.0));
}

void fail_tally_counts_attempts_and_names_failures() {
  flowbench::FailTally t;
  EXPECT(t.ok_frac() == 0.0 && t.fail_frac() == 0.0);
  t.pass();
  t.pass();
  t.fail("tv80", "CEC miscompare at output y");
  t.pass();
  EXPECT(t.attempted == 4);
  EXPECT(t.failed() == 1);
  EXPECT(near(t.fail_frac(), 0.25));
  EXPECT(near(t.ok_frac(), 0.75));
  EXPECT(t.failures[0] == "tv80: CEC miscompare at output y");
}

void median_of_odd_and_even_samples() {
  EXPECT(near(flowbench::median({3, 1, 2}), 2));
  EXPECT(near(flowbench::median({4, 1, 3, 2}), 2.5));
  bool threw = false;
  try {
    flowbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  EXPECT(threw);
}

void recorder_nests_and_exports() {
  flowbench::SpanRecorder rec;
  {
    const flowbench::SpanRecorder::Scope outer(&rec, "design.a");
    const flowbench::SpanRecorder::Scope inner(&rec, "aig.aigmap");
  }
  {
    const flowbench::SpanRecorder::Scope off(nullptr, "ignored"); // untraced: no-op
  }
  EXPECT(rec.spans().size() == 2);
  EXPECT(rec.spans()[1].parent == 0);
  EXPECT(rec.spans()[0].start <= rec.spans()[1].start);
  EXPECT(rec.spans()[1].end <= rec.spans()[0].end);
  const std::string json = rec.chrome_json();
  EXPECT(json.find("\"name\":\"aig.aigmap\",\"cat\":\"aig\",\"ph\":\"X\"") != std::string::npos);
  EXPECT(json.rfind("]}\n") == json.size() - 3);
}

void rename_keeps_keywords_and_literals() {
  const std::string src = "module m(a, y);\n  input [3:0] a;\n  output y;\n"
                          "  assign y = (a == 4'b1?0z) ? a[0]:y_1;\nendmodule\n";
  const std::string out = flowbench::rename_identifiers(src, 7);
  for (const char* kept :
       {"module ", "input [3:0] ", "output ", "assign ", "4'b1?0z", "endmodule"})
    EXPECT(out.find(kept) != std::string::npos);
  for (const char* gone : {" m(", "(a,", " y;", "y_1"})
    EXPECT(out.find(gone) == std::string::npos);
  // One identifier, one name, however often it appears.
  const std::string a = flowbench::rename_identifiers("a", 7);
  size_t uses = 0;
  for (size_t at = out.find(a); at != std::string::npos; at = out.find(a, at + 1))
    ++uses;
  EXPECT(uses == 4);
  EXPECT(flowbench::rename_identifiers(src, 7) == out); // deterministic in the seed
  EXPECT(flowbench::rename_identifiers(src, 8) != out);
  // A ternary without spaces: '?' belongs to a literal only.
  const std::string t = flowbench::rename_identifiers("s?x:y", 7);
  EXPECT(t.find('?') != std::string::npos && t.find(':') != std::string::npos);
  EXPECT(t.find("s?") == std::string::npos);
}

} // namespace

int main() {
  self_time_subtracts_direct_children();
  self_time_counts_overlapping_children_once();
  ratios_use_their_stated_base();
  fail_tally_counts_attempts_and_names_failures();
  median_of_odd_and_even_samples();
  recorder_nests_and_exports();
  rename_keeps_keywords_and_literals();
  if (failures == 0)
    std::printf("test_bench_support: all passed\n");
  return failures == 0 ? 0 : 1;
}
