// Arithmetic of the flow benchmark, kept apart from the workloads so that
// test_bench_support.cpp can check it without running a flow:
//
//  * SpanRecorder — spans the benchmark records around its own calls into
//    each library layer (never inside the library), their self time (the
//    span's duration minus the union of its children's intervals) and the
//    Chrome trace-event export;
//  * ratio helpers — every *_frac and *_util metric goes through frac() and
//    util(), so the base of each ratio is fixed in one place;
//  * FailTally — designs attempted / failed, with the failing names;
//  * median() — the statistic every timed metric reports;
//  * rename_identifiers() — the seeded presentation of generated Verilog.
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace flowbench {

/// num / den, or 0 when nothing was attempted (den == 0).
inline double frac(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Share of the granted CPU a call used: cpu_s / (wall_s × threads).
inline double util(double cpu_s, double wall_s, int threads) {
  return frac(cpu_s, wall_s * (threads > 0 ? threads : 1));
}

/// Median of a non-empty sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty())
    throw std::invalid_argument("median of an empty sample");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One splitmix64 step: the benchmark's only source of seeded randomness.
inline uint64_t splitmix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeded presentation of generated Verilog: every identifier except the
/// frontend's keywords becomes a name hashed from (seed, identifier), and
/// number literals are copied verbatim. The circuit is unchanged; its text,
/// and every order the library derives from names, differ between seeds.
inline std::string rename_identifiers(const std::string& verilog, uint64_t seed) {
  static const std::set<std::string> keywords = {
      "always", "assign",  "begin",     "case", "casez", "default",    "else",
      "end",    "endcase", "endmodule", "if",   "input", "localparam", "module",
      "or",     "output",  "parameter", "posedge", "reg", "wire"};
  auto ident_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' || c == '$';
  };
  std::map<std::string, std::string> renamed;
  std::set<std::string> taken;
  std::string out;
  out.reserve(verilog.size() + verilog.size() / 2);
  for (size_t i = 0; i < verilog.size();) {
    const char c = verilog[i];
    const bool literal_body = c == '\'' || std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!literal_body && !ident_char(c)) {
      out += verilog[i++];
      continue;
    }
    size_t j = i + 1;
    while (j < verilog.size() && (ident_char(verilog[j]) || (literal_body && verilog[j] == '?')))
      ++j;
    const std::string token = verilog.substr(i, j - i);
    i = j;
    if (literal_body || keywords.count(token) != 0) {
      out += token; // 8'b10?1, 42, keywords
      continue;
    }
    auto it = renamed.find(token);
    if (it == renamed.end()) {
      uint64_t h = seed;
      for (const unsigned char ch : token)
        h = splitmix(h) ^ ch;
      char buf[24];
      std::snprintf(buf, sizeof(buf), "n%016llx", static_cast<unsigned long long>(splitmix(h)));
      if (!taken.insert(buf).second)
        throw std::runtime_error("identifier rename collision on " + token);
      it = renamed.emplace(token, buf).first;
    }
    out += it->second;
  }
  return out;
}

/// Designs attempted and failed; a failure names its design and cause.
struct FailTally {
  size_t attempted = 0;
  std::vector<std::string> failures;

  void pass() { ++attempted; }
  void fail(const std::string& design, const std::string& why) {
    ++attempted;
    failures.push_back(design + ": " + why);
  }
  size_t failed() const { return failures.size(); }
  double fail_frac() const { return frac(static_cast<double>(failed()), attempted); }
  double ok_frac() const { return attempted == 0 ? 0.0 : 1.0 - fail_frac(); }
};

struct SpanRecord {
  std::string name; ///< "layer.what"; the layer is the part before the first '.'
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  double start = 0; ///< seconds since the recorder was created
  double end = 0;
  double seconds() const { return end - start; }
  std::string layer() const { return name.substr(0, name.find('.')); }
};

/// Per-span self time: duration minus the part of the span's interval that
/// its direct children cover (overlapping children are counted once).
inline std::vector<double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
  std::vector<double> out(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start);
      hi = std::min(hi, spans[i].end);
      if (hi <= lo)
        continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open)
        covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open)
      covered += cur_hi - cur_lo;
    out[i] = spans[i].seconds() - covered;
  }
  return out;
}

/// Spans recorded in memory on one thread, written out when the run ends.
class SpanRecorder {
public:
  using Clock = std::chrono::steady_clock;

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
  public:
    Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
      if (rec_ != nullptr)
        id_ = rec_->open(std::move(name));
    }
    ~Scope() {
      if (rec_ != nullptr)
        rec_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanRecorder* rec_;
    int id_ = -1;
  };

  int open(std::string name) {
    SpanRecord s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.start = now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  /// Closes the innermost open span (Scope nesting guarantees it is `id`).
  void close(int id) {
    if (!stack_.empty() && stack_.back() == id) {
      spans_[static_cast<size_t>(id)].end = now();
      stack_.pop_back();
    }
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    i == 0 ? "" : ",", s.name.c_str(), s.layer().c_str(), s.start * 1e6,
                    s.seconds() * 1e6);
      out += buf;
    }
    out += "]}\n";
    return out;
  }

private:
  double now() const { return std::chrono::duration<double>(Clock::now() - epoch_).count(); }

  Clock::time_point epoch_ = Clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

} // namespace flowbench
