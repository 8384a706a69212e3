// Sub-graph extraction for SAT-based redundancy elimination (paper §II).
//
// "SmaRTLy begins by constructing a sub-graph during the traversal of the
// muxtree. When a new MUX is encountered, all logical gates within a
// specified distance k from the control port are incorporated. … To keep the
// sub-graph manageable, smaRTLy only adds potential signals whose values
// might be affected by known signals" (Theorems II.1/II.2). Sequential cells
// are excluded so the sub-graph stays a DAG.
#pragma once

#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"

#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace smartly::core {

struct SubgraphOptions {
  int depth = 4; ///< distance k from the control port / known signals
  /// Apply the Theorem II.1 relevance filter (ablatable; the paper reports
  /// it dismisses ~80% of the gates in the sub-graph).
  bool relevance_filter = true;
};

struct Subgraph {
  std::vector<rtlil::Cell*> cells; ///< combinational, topo-closed subset
  size_t gates_before_filter = 0;  ///< cells gathered by the distance-k BFS
};

/// Extract the sub-graph around `target` (a control-port bit) and the
/// already-known signals. All bits must be canonical w.r.t. `index.sigmap()`.
Subgraph extract_subgraph(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                          rtlil::SigBit target, const std::vector<rtlil::SigBit>& known,
                          const SubgraphOptions& options);

/// Reusable scratch space for extract_subgraph: clears hash-table buckets
/// instead of reallocating them. The §II oracle issues thousands of
/// extractions per module; per-query container construction is measurable.
/// Produces a Subgraph whose cell *set* and counters are
/// identical to extract_subgraph's (vector order may differ — no consumer
/// depends on it).
class SubgraphScratch {
public:
  Subgraph extract(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                   rtlil::SigBit target, const std::vector<rtlil::SigBit>& known,
                   const SubgraphOptions& options);

private:
  std::unordered_map<rtlil::Cell*, int> depth_;
  std::deque<rtlil::Cell*> queue_;
  std::vector<rtlil::Cell*> seeds_;
  std::vector<rtlil::Cell*> next_;
  std::unordered_set<rtlil::Cell*> kept_;
  std::deque<rtlil::SigBit> bitq_;
  std::unordered_set<rtlil::SigBit> seen_bits_;
};

} // namespace smartly::core
