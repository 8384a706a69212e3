// Incremental oracle engine (§II) — amortizes work across muxtree queries.
//
// The from-scratch InferenceOracle re-extracts the sub-graph, re-runs
// inference from an empty lattice and re-blasts the cone to an AIG on every
// decide() call, even though consecutive queries share most of their logic
// cone. This engine keeps the *decision pipeline* bit-identical (syntactic →
// inference → simulation → SAT, same options, same verdicts) but reuses
// everything that is a pure function of inputs the caches can key on:
//
//   * decision cache  — exact (target, known-assignment) repeats, served
//     without any re-derivation. Flushed on every walker mutation
//     notification and at sweep boundaries following a mutating sweep, so a
//     hit is only possible when the module provably did not change between
//     the two queries.
//   * cone cache      — AIG encodings keyed by the sub-graph's structural
//     fingerprint (Subgraph::fingerprint) plus the query roots. The AIG is a
//     pure function of cell contents + roots, so a fingerprint hit is sound
//     by construction; a mutated cell changes its content hash and simply
//     stops matching. Walker notifications additionally evict entries
//     eagerly (bookkeeping + memory hygiene).
//
// Stage 4 then runs exactly as in InferenceOracle::decide on the cached cone:
// exhaustive simulation for sim-sized cones, and otherwise a fresh CDCL
// solver per query over that cone alone. The oracle keeps no solver state
// between queries. A persistent solver with activation-literal clause groups
// and replayed SAT models was tried and removed: on the flow and bench_oracle
// workloads every cone that reaches stage 4 is small enough for exhaustive
// simulation, so that machinery never ran.
//
// Correctness bar: decide() must return bit-identical CtrlDecisions to
// InferenceOracle on every query, including after walker mutations and at
// the SAT conflict-budget edge — enforced by tests/test_incremental_oracle.cpp
// and bench_oracle's decisions_match differential.
#pragma once

#include "aig/aigmap.hpp"
#include "core/inference.hpp"
#include "core/sat_redundancy.hpp"
#include "core/subgraph.hpp"
#include "opt/muxtree_walker.hpp"
#include "util/hashing.hpp"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace smartly::core {

struct IncrementalOracleOptions {
  SatRedundancyOptions base;        ///< same decision knobs as InferenceOracle
  size_t cone_cache_max = 4096;     ///< cone entries before a wholesale reset
  size_t decision_cache_max = 131072; ///< cached decisions before a wholesale flush
};

struct IncrementalOracleStats {
  size_t queries = 0;
  size_t decided_syntactic = 0;
  size_t decided_inference = 0;
  size_t decided_sim = 0;
  size_t decided_sat = 0;
  size_t dead_paths = 0;
  size_t skipped_too_large = 0;
  size_t gates_seen = 0;          ///< sub-graph gates before the relevance filter
  size_t gates_kept = 0;          ///< after the filter (cache hits skip extraction)
  size_t decision_cache_hits = 0; ///< exact-repeat queries ("subgraph cache")
  size_t cone_cache_hits = 0;     ///< AIG encodings reused
  size_t cone_cache_misses = 0;
  size_t sim_filter_kills = 0;    ///< queries settled at the simulation stage
  size_t sim_filter_half = 0;     ///< early-exited sweeps (both polarities seen)
  size_t sat_calls = 0;           ///< individual solve() invocations
  size_t skipped_halt = 0;        ///< queries answered Unknown after a halt, unsolved
  size_t skipped_quarantine = 0;  ///< queries answered Unknown for a quarantined target
  uint64_t solver_conflicts = 0;
  size_t cells_remapped = 0;      ///< walker mutation/removal notifications
  size_t portable_hits = 0;    ///< persistent-memo hits (service warm cache)
  size_t portable_misses = 0;  ///< memo consultations that fell through
  size_t portable_inserts = 0; ///< definitive verdicts recorded into the memo
};

class IncrementalOracle final : public opt::MuxtreeOracle {
public:
  explicit IncrementalOracle(const IncrementalOracleOptions& options = {});
  ~IncrementalOracle() override;

  /// Legacy entry: builds a private NetlistIndex per sweep.
  void begin_module(rtlil::Module& module) override;
  /// Index-sharing entry: binds the walker's incrementally-maintained index.
  /// Also the per-region entry of the parallel sweep engine, which keeps one
  /// oracle per region (state is a function of region content alone — the
  /// thread-count determinism guarantee).
  void begin_module(rtlil::Module& module, const rtlil::NetlistIndex& index) override;
  opt::CtrlDecision decide(rtlil::SigBit ctrl, const opt::KnownMap& known) override;
  void notify_cell_mutated(rtlil::Cell* cell) override;
  void notify_cell_removed(rtlil::Cell* cell) override;
  /// Invalidate decisions whose cone read one of these (sweep-time canonical)
  /// nets as a boundary input — the same bit_to_queries_ retraction the
  /// oracle performs for its own removals' output classes, driven externally
  /// by the parallel engine for other regions' removals.
  void notify_external_rewire(const std::vector<rtlil::SigBit>& bits) override;

  /// Drop every cache. The oracle only observes mutations the walker
  /// notifies it about; if anything else rewrites the module between
  /// optimize_muxtrees runs (opt_expr, opt_clean, ...), call this before
  /// reusing the oracle on that module — begin_module alone cannot tell an
  /// externally-mutated module from an unchanged one.
  void reset() { full_reset(); }

  const IncrementalOracleStats& stats() const noexcept { return stats_; }

private:
  struct QueryKey {
    rtlil::SigBit target;
    std::vector<std::pair<rtlil::SigBit, bool>> known; ///< sorted by SigBit

    bool operator==(const QueryKey& o) const noexcept {
      return target == o.target && known == o.known;
    }
  };
  struct QueryKeyHasher {
    size_t operator()(const QueryKey& k) const noexcept {
      uint64_t h = k.target.hash();
      for (const auto& [bit, value] : k.known)
        h = hash_combine(h, bit.hash() * 2 + (value ? 1 : 0));
      return static_cast<size_t>(h);
    }
  };

  /// One cached cone: the AIG encoding plus the cells it was built from.
  struct ConeEntry {
    aig::AigMap cone;
    std::vector<rtlil::Cell*> cells; ///< for eager eviction bookkeeping
  };

  ConeEntry& cone_for(const Subgraph& sg, rtlil::SigBit ctrl,
                      const std::vector<rtlil::SigBit>& known_bits);
  void invalidate_cell(rtlil::Cell* cell);
  void invalidate_decision(uint64_t id);
  void full_reset();
  /// Cache a decision and return it. `definitive_unknown` marks an Unknown
  /// that is a pure function of the salted cone (exhaustive sim found no
  /// forcing, both polarities proved satisfiable, or the query is
  /// structurally out of scope) — such verdicts go into the portable memo;
  /// guard-halt, fault-injected, and budget-exhausted Unknowns never do.
  opt::CtrlDecision finish(const QueryKey& key, const Subgraph& sg,
                           opt::CtrlDecision decision, bool definitive_unknown = false);

  IncrementalOracleOptions options_;
  IncrementalOracleStats stats_;

  void flush_pending_removed();

  /// Portable-memo context of the in-flight decide() call: the canonical key
  /// (valid when pending_portable_ is set) and the options salt folded into
  /// every key so entries recorded under different oracle knobs never match.
  /// decide() is not reentrant, so per-call members are safe.
  Hash128 portable_key_{};
  bool pending_portable_ = false;
  uint64_t options_salt_ = 0;

  rtlil::Module* module_ = nullptr;
  const rtlil::NetlistIndex* index_ = nullptr;
  std::unique_ptr<rtlil::NetlistIndex> owned_index_;
  SubgraphScratch subgraph_scratch_;
  InferenceEngine engine_;
  std::vector<uint64_t> sim_scratch_;

  struct DecisionEntry {
    opt::CtrlDecision decision;
    uint64_t id; ///< handle the support indexes refer to
  };
  std::unordered_map<QueryKey, DecisionEntry, QueryKeyHasher> decision_cache_;
  /// id -> key of the live cache entry (pointers into decision_cache_ nodes,
  /// which unordered_map keeps stable until erased). The support indexes
  /// store ids, not key copies — one key allocation per cached decision
  /// instead of one per ball cell and boundary bit — and an id that has
  /// already been invalidated through one index simply misses here when the
  /// other index replays it.
  std::unordered_map<uint64_t, const QueryKey*> live_decisions_;
  uint64_t next_decision_id_ = 0;
  /// Inverted support index: ball cell -> decisions depending on it. Walker
  /// mutation notifications erase exactly the dependent entries.
  std::unordered_map<const rtlil::Cell*, std::vector<uint64_t>> cell_to_queries_;
  /// Second support index: boundary bit -> decisions. A decision can depend
  /// on a bit whose driver lies *outside* its extraction ball (the bit is a
  /// free input of the cone); when a removed mux's output class merges with
  /// other logic at sweep end, such decisions go stale without any ball cell
  /// having changed. Keyed on the sweep-time canonical bits.
  std::unordered_map<rtlil::SigBit, std::vector<uint64_t>> bit_to_queries_;
  /// Cells the walker scheduled for removal: they stay in the module until
  /// sweep end, so decisions cached after the notification may still depend
  /// on them — re-invalidated at the next begin_module.
  std::vector<rtlil::Cell*> pending_removed_;
  /// Canonical output bits of the pending-removed cells, recorded while the
  /// sweep's sigmap is still alive; drives the bit_to_queries_ invalidation.
  std::vector<rtlil::SigBit> pending_removed_bits_;

  std::unordered_map<Hash128, ConeEntry, Hash128Hasher> cone_cache_;
  std::unordered_map<const rtlil::Cell*, std::vector<Hash128>> cell_to_cones_;
};

} // namespace smartly::core
