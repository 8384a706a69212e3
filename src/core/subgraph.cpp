#include "core/subgraph.hpp"

#include "util/log.hpp"

#include <algorithm>

namespace smartly::core {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::NetlistIndex;
using rtlil::Port;
using rtlil::SigBit;

// Adjacency comes from rtlil::combinational_adjacent_cells: region
// partitioning (opt/region_partition.cpp) must over-approximate these balls,
// so extraction and partitioning share one definition.
using rtlil::combinational_adjacent_cells;

Subgraph SubgraphScratch::extract(const rtlil::Module& module, const NetlistIndex& index,
                                  SigBit target, const std::vector<SigBit>& known,
                                  const SubgraphOptions& options) {
  (void)module;
  Subgraph out;

  depth_.clear();
  queue_.clear();
  seeds_.clear();
  kept_.clear();
  bitq_.clear();
  seen_bits_.clear();

  // --- stage 1: undirected ball of radius k around target + known ---------
  // ("all logical gates within a specified distance k from the control port")
  combinational_adjacent_cells(index, target, seeds_);
  for (const SigBit& kb : known)
    combinational_adjacent_cells(index, kb, seeds_);
  for (Cell* c : seeds_) {
    if (depth_.emplace(c, 0).second)
      queue_.push_back(c);
  }
  while (!queue_.empty()) {
    Cell* c = queue_.front();
    queue_.pop_front();
    const int d = depth_[c];
    if (d >= options.depth)
      continue;
    next_.clear();
    for (int pi = 0; pi < rtlil::kPortCount; ++pi) {
      const Port p = static_cast<Port>(pi);
      if (!c->has_port(p))
        continue;
      for (const SigBit& raw : c->port(p)) {
        const SigBit bit = index.sigmap()(raw);
        if (bit.is_wire())
          combinational_adjacent_cells(index, bit, next_);
      }
    }
    for (Cell* n : next_) {
      if (depth_.emplace(n, d + 1).second)
        queue_.push_back(n);
    }
  }
  out.gates_before_filter = depth_.size();

  // --- stage 2: Theorem II.1 relevance filter ------------------------------
  // A signal can constrain or be constrained by {target} ∪ known only through
  // common ancestors (Theorems II.1/II.2), so for encoding the question
  // "is target forced?" the gates that matter are exactly those whose output
  // is an ancestor of the target or of a known signal. Everything else in the
  // ball is dismissed (paper: "the method can dismiss about 80% gates").
  if (options.relevance_filter) {
    auto push_bit = [&](const SigBit& b) {
      if (b.is_wire() && seen_bits_.insert(b).second)
        bitq_.push_back(b);
    };
    push_bit(target);
    for (const SigBit& kb : known)
      push_bit(kb);
    while (!bitq_.empty()) {
      const SigBit bit = bitq_.front();
      bitq_.pop_front();
      Cell* d = index.driver(bit);
      if (!d || d->type() == CellType::Dff)
        continue;
      if (!depth_.count(d))
        continue; // outside the ball: a free input of the sub-graph
      if (!kept_.insert(d).second)
        continue;
      for (Port p : d->input_ports())
        for (const SigBit& raw : d->port(p))
          push_bit(index.sigmap()(raw));
    }
  } else {
    for (const auto& [cell, d] : depth_) {
      (void)d;
      kept_.insert(cell);
    }
  }

  out.cells.assign(kept_.begin(), kept_.end());
  return out;
}

Subgraph extract_subgraph(const rtlil::Module& module, const NetlistIndex& index,
                          SigBit target, const std::vector<SigBit>& known,
                          const SubgraphOptions& options) {
  SubgraphScratch scratch;
  return scratch.extract(module, index, target, known, options);
}

} // namespace smartly::core
