// aigmap — bit-blast an RTLIL module into an AIG (Yosys `aigmap` analogue).
//
// Sequential cells are cut exactly as the paper's metric requires ("we
// exclude Flip-Flop gates from consideration"): every $dff Q bit becomes an
// AIG input and every D bit an AIG output, so the AIG covers precisely the
// combinational cones and its AND count is the paper's "AIG area".
//
// x/z constants map to 0. This is the usual synthesis resolution of
// don't-cares and is applied identically to baseline and optimized designs.
#pragma once

#include "aig/aig.hpp"
#include "rtlil/module.hpp"
#include "rtlil/topo.hpp"

#include <unordered_map>

namespace smartly::aig {

struct AigMap {
  Aig aig;
  /// Canonical SigBit -> AIG literal for every mapped bit.
  std::unordered_map<rtlil::SigBit, Lit> bits;
};

/// Bit-blast `module`. AIG outputs = module output ports + dff D inputs;
/// AIG inputs = module input ports + undriven wires + dff Q outputs.
AigMap aigmap(const rtlil::Module& module);

/// Whole-module blast with a caller-maintained NetlistIndex. The fraig engine
/// re-blasts the netlist every refinement round against the index it updates
/// incrementally; rebuilding the index per round would dominate small rounds.
AigMap aigmap(const rtlil::Module& module, const rtlil::NetlistIndex& index);

/// Bit-blast only a sub-graph: the given `cells` are mapped (in topological
/// order); any bit driven by a cell outside the set becomes an AIG input.
/// AIG outputs are the requested `roots`. Used by the §II redundancy engine
/// to hand a bounded sub-graph to simulation or SAT, against the caller's
/// NetlistIndex (building a whole-module index per cone would dominate).
AigMap aigmap_cone(const rtlil::Module& module, const rtlil::NetlistIndex& index,
                   const std::vector<rtlil::Cell*>& cells,
                   const std::vector<rtlil::SigBit>& roots);

/// Convenience: the paper's area metric (AND nodes reachable from outputs).
size_t aig_area(const rtlil::Module& module);

/// Input registry for shared-graph mapping (see aigmap_shared).
struct SharedInputs {
  std::unordered_map<std::string, Lit> by_name;
};

/// Bit-blast `module` into an existing graph, reusing same-named inputs from
/// earlier calls. Structurally identical cones of the two designs strash to
/// the same literal, which lets the equivalence checker discharge untouched
/// logic without any SAT work. Returns (name, literal) pairs for the module's
/// outputs and dff D-cones, in the same naming scheme as aigmap(); outputs
/// are NOT registered on the graph (two designs would collide).
std::vector<std::pair<std::string, Lit>> aigmap_shared(Aig& graph, SharedInputs& inputs,
                                                       const rtlil::Module& module);

} // namespace smartly::aig
