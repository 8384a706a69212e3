// Netlist indices: driver map, fanout counts, topological cell order.
#pragma once

#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"

#include <cstdint>
#include <vector>

namespace smartly::rtlil {

class NetlistIndex;

/// Cells adjacent to a (canonical) bit in the undirected netlist graph: its
/// driver plus all its readers, sequential cells excluded (they cut the
/// combinational cone). This is the single adjacency relation shared by
/// sub-graph extraction (core/subgraph.cpp) and region partitioning
/// (opt/region_partition.cpp) — the parallel sweep's race-freedom argument
/// requires region closures to over-approximate every extraction ball, which
/// holds only while both sides use this exact definition.
void combinational_adjacent_cells(const NetlistIndex& index, const SigBit& bit,
                                  std::vector<Cell*>& out);

/// True when an incrementally maintained index still equals a from-scratch
/// rebuild of `module`: per-bit driver / reader multiset / fanout /
/// output-port agreement plus a complete, dependency-respecting topo order.
/// The robustness machinery runs this after budget halts and injected faults
/// (engines' check_index option, tests/test_faults.cpp). O(module) plus a
/// full rebuild — debug/test cost, not hot-path cost.
bool index_consistent(const Module& module, const NetlistIndex& index);

/// Snapshot of who drives / reads each canonical SigBit.
///
/// Built once from a module, then either discarded after the pass iteration
/// (the historical usage) or kept alive and *updated in place* from the
/// sweep's structural edits via the incremental-maintenance API below — the
/// muxtree sweep engines apply their journals through it so the index is
/// never rebuilt from scratch between iterations.
///
/// Concurrency: all query methods are const and, provided `sigmap().flatten()`
/// has run since the last mutation, safe to call from many threads at once.
/// The maintenance methods are single-threaded (barrier-phase only).
class NetlistIndex {
public:
  explicit NetlistIndex(const Module& module);

  const SigMap& sigmap() const noexcept { return sigmap_; }

  /// Cell whose output drives this (canonical) bit, or nullptr for primary
  /// inputs / constants / dff-driven bits when `through_dff` was false.
  Cell* driver(SigBit bit) const;

  /// All cells reading this (canonical) bit. One entry per (cell, port, bit
  /// position) that reads the net, so a cell appears as many times as it
  /// reads the bit.
  const std::vector<Cell*>& readers(SigBit bit) const;

  /// Number of reader cells plus 1 if the bit reaches a module output port.
  int fanout(SigBit bit) const;

  bool drives_output_port(SigBit bit) const;

  /// Cells in topological order (combinational edges only; Dff cells are
  /// sources for their Q and sinks for their D). Throws if a combinational
  /// cycle exists. After incremental removals the order is compacted by
  /// compact_topo(); surviving cells keep their original relative order.
  /// Until then a removed cell's entry reads nullptr.
  const std::vector<Cell*>& topo_order() const noexcept { return topo_; }

  /// Position of a cell within topo_order(), or -1 if unknown (removed,
  /// detached, or another module's cell). Lets callers
  /// sort small cell subsets into evaluation order without a module rescan.
  /// Positions are stable (never renumbered) across incremental updates, so
  /// only their relative order is meaningful after a removal.
  int topo_position(const Cell* cell) const {
    const size_t id = cell_slot(cell);
    return id < topo_pos_.size() ? topo_pos_[id] : -1;
  }

  // --- incremental maintenance (sweep-barrier journal application) ---------
  //
  // The muxtree walkers only ever *shrink* the netlist: input ports lose
  // bits, cells disappear, and removed cells' outputs get aliased onto one of
  // their data inputs. Applied in the order remove_cell* -> add_alias* ->
  // refresh_cell_reads* -> compact_topo(), these primitives leave the index
  // equal (as driver/reader/output-port *multisets* per canonical net, and as
  // a valid topological order) to a from-scratch rebuild of the edited
  // module. Aliasing never creates a dependency that contradicts the stored
  // topo positions: a connect's lhs is the output of a removed cell that
  // already sat between the rhs's driver and the lhs's readers.

  /// Erase a cell that is being removed from the module: its driver entries,
  /// its reader entries, and its topo bookkeeping. Call *before* add_alias
  /// for the sweep's connects (keys are canonicalized with the current map).
  void remove_cell(Cell* cell);

  /// Register a cell added to the module mid-maintenance (the fraig engine
  /// inserts inverters for complement-pair merges). `topo_pos` slots the cell
  /// into the stored order — callers pass a freed position (typically the one
  /// a just-removed cell held) that sits after the new cell's fanin drivers
  /// and before its readers. topo_order() reflects the insertion only after
  /// the next compact_topo().
  void add_cell(Cell* cell, int topo_pos);

  /// Record a module-level connect: merges the canonical classes bit-by-bit
  /// and migrates reader lists, driver entries, and output-port flags onto
  /// the surviving representative. Must mirror Module::connect calls 1:1 and
  /// in the same order so the union-find state matches a rebuild.
  void add_alias(const SigSpec& lhs, const SigSpec& rhs);

  /// Re-derive the reader entries of a cell whose input ports were rewritten
  /// in place during the sweep. Call after add_alias so the new entries are
  /// keyed under the post-connect canonical bits, exactly like a rebuild.
  void refresh_cell_reads(Cell* cell);

  /// Drop removed cells from topo_order() and slot added cells into position
  /// order. Positions of survivors keep their old values (gaps are fine: only
  /// relative order is meaningful).
  void compact_topo();

private:
  static constexpr size_t kNoSlot = SIZE_MAX;

  /// Dense slot of a canonical bit: its bit id when it is a wire bit of this
  /// module, else kNoSlot (constants, other modules' bits). The slot may lie
  /// beyond the per-bit vectors for wires created after their last growth.
  size_t bit_slot(const SigBit& canonical) const {
    if (!canonical.is_wire() || canonical.wire->module() != module_)
      return kNoSlot;
    return bit_id(canonical);
  }
  /// Cell id for this module's cells; kNoSlot for detached or foreign cells.
  size_t cell_slot(const Cell* cell) const {
    if (cell->module() != module_ || cell->id() == Cell::kNoId)
      return kNoSlot;
    return cell->id();
  }
  /// Size the per-bit / per-cell vectors to cover every id handed out so far
  /// (maintenance only; queries treat out-of-range ids as misses).
  void grow_bits();
  void grow_cells();

  void index_cell_reads(Cell* cell);
  void erase_cell_reads(Cell* cell);

  const Module* module_;
  SigMap sigmap_;
  // Per canonical wire bit, indexed by bit id.
  std::vector<Cell*> driver_;
  std::vector<std::vector<Cell*>> readers_;
  std::vector<uint8_t> output_port_bits_;
  /// Output-port flags of constant-canonical bits, one bit per State.
  uint8_t output_port_consts_ = 0;
  // Per cell, indexed by cell id.
  /// Canonical-at-insertion read bits per cell, one entry per (port, bit
  /// position) — the exact multiset of reader entries to retract when the
  /// cell mutates or disappears. Keys are re-canonicalized at erase time so
  /// alias merges in between are harmless.
  std::vector<std::vector<SigBit>> cell_reads_;
  std::vector<int> topo_pos_; ///< -1 for cells without a position
  /// remove_cell nulls its topo_ entry (the cell may be freed before
  /// compact_topo runs); compact_topo drops the nulls.
  std::vector<Cell*> topo_;
  bool topo_has_holes_ = false;  ///< a remove_cell left a null in topo_
  bool topo_needs_sort_ = false; ///< an add_cell broke topo_'s position order
  std::vector<Cell*> empty_;
};

} // namespace smartly::rtlil
