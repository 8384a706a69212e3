// SigMap — canonicalization of alias connections (Yosys's SigMap).
//
// Module-level `connect(lhs, rhs)` entries make several SigBits name the same
// net. Passes must compare signals modulo these aliases; SigMap is a
// union-find over SigBits that returns a canonical representative
// (constants win over wires so `sigmap(x)` of a tied-off bit is the constant).
//
// Storage: one parent slot per module bit, indexed by the dense bit id
// (rtlil::bit_id), plus four slots for the constant states. The map belongs to
// one module — the one it was built from, or for a default-constructed map
// the module of the first wire bit add() sees. Bits of any other module, and
// bits beyond the highest id add() has touched, are their own representative.
//
// Concurrency contract: after flatten(), every stored parent points directly
// at its class representative, so find() takes the write-free fast path and
// the map may be read from many threads at once. add() (and the compressing
// slow path of find(), which only runs on chains created by add()) must stay
// single-threaded — the parallel sweep engine only mutates the sigmap at its
// serial journal-application barriers and calls flatten() before releasing
// worker threads back onto it.
#pragma once

#include "rtlil/module.hpp"

#include <array>
#include <stdexcept>
#include <vector>

namespace smartly::rtlil {

class SigMap {
public:
  SigMap() { const_parent_.fill(no_parent()); }
  explicit SigMap(const Module& module) : SigMap() {
    module_ = &module;
    for (const auto& [lhs, rhs] : module.connections())
      add(lhs, rhs);
  }

  /// Merge the two signals bit-by-bit (lhs aliases rhs).
  void add(const SigSpec& lhs, const SigSpec& rhs) {
    const int n = std::min(lhs.size(), rhs.size());
    for (int i = 0; i < n; ++i)
      add(lhs[i], rhs[i]);
  }

  void add(SigBit a, SigBit b) {
    bind(a);
    bind(b);
    a = find(a);
    b = find(b);
    if (a == b)
      return;
    // Prefer a constant representative; otherwise keep `b` (the rhs/driver
    // side) canonical so chains collapse toward drivers.
    if (a.is_const())
      *grow_slot(b) = a;
    else
      *grow_slot(a) = b;
  }

  SigBit operator()(SigBit bit) const { return find(bit); }

  SigSpec operator()(const SigSpec& sig) const {
    SigSpec out;
    for (const SigBit& b : sig)
      out.append(find(b));
    return out;
  }

  /// Point every stored parent directly at its representative. Afterwards
  /// find() never writes, making concurrent lookups race-free until the next
  /// add().
  void flatten() const {
    const auto flatten_slot = [&](SigBit& par) {
      if (is_root(par))
        return;
      SigBit root = par;
      for (const SigBit* next = slot(root); next != nullptr && !is_root(*next); next = slot(root))
        root = *next;
      par = root;
    };
    for (SigBit& par : const_parent_)
      flatten_slot(par);
    for (SigBit& par : parent_)
      flatten_slot(par);
  }

private:
  /// Slot value of a bit that is its own representative. Distinct from every
  /// real parent: constants are stored with offset 0.
  static SigBit no_parent() {
    SigBit none;
    none.offset = -1;
    return none;
  }
  static bool is_root(const SigBit& par) { return par.wire == nullptr && par.offset < 0; }

  /// The parent slot of `bit`, or nullptr when nothing is stored for it.
  SigBit* slot(const SigBit& bit) const {
    if (bit.is_const())
      return &const_parent_[static_cast<size_t>(bit.data)];
    if (bit.wire->module() != module_)
      return nullptr;
    const uint32_t id = bit_id(bit);
    return id < parent_.size() ? &parent_[id] : nullptr;
  }

  SigBit* grow_slot(const SigBit& bit) {
    if (bit.is_wire() && bit_id(bit) >= parent_.size())
      parent_.resize(static_cast<size_t>(bit_id(bit)) + 1, no_parent());
    return slot(bit);
  }

  /// A default-constructed map belongs to the module of the first wire bit it
  /// is given; aliasing bits of two modules is an error.
  void bind(const SigBit& bit) {
    if (bit.is_const())
      return;
    if (module_ == nullptr)
      module_ = bit.wire->module();
    else if (bit.wire->module() != module_)
      throw std::invalid_argument("SigMap: alias between bits of two modules");
  }

  SigBit find(SigBit bit) const {
    SigBit* link = slot(bit);
    if (link == nullptr || is_root(*link))
      return bit;
    SigBit root = *link;
    const SigBit* next = slot(root);
    if (next == nullptr || is_root(*next))
      return root; // already flat: no write (concurrent-read fast path)
    do {
      root = *next;
      next = slot(root);
    } while (next != nullptr && !is_root(*next));
    // Compress the chain. Only reached when add() created a multi-hop chain
    // since the last flatten(), i.e. in single-threaded phases.
    while (!(*link == root)) {
      SigBit* after = slot(*link);
      *link = root;
      link = after;
    }
    return root;
  }

  const Module* module_ = nullptr;
  mutable std::vector<SigBit> parent_;            ///< by bit id
  mutable std::array<SigBit, 4> const_parent_;    ///< by State
};

} // namespace smartly::rtlil
