#include "rtlil/topo.hpp"

#include "util/log.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace smartly::rtlil {

void combinational_adjacent_cells(const NetlistIndex& index, const SigBit& bit,
                                  std::vector<Cell*>& out) {
  if (Cell* d = index.driver(bit); d && d->type() != CellType::Dff)
    out.push_back(d);
  for (Cell* r : index.readers(bit))
    if (r->type() != CellType::Dff)
      out.push_back(r);
}

NetlistIndex::NetlistIndex(const Module& module) : module_(&module), sigmap_(module) {
  grow_bits();
  grow_cells();
  for (const auto& w : module.wires()) {
    if (!w->port_output)
      continue;
    for (int i = 0; i < w->width(); ++i) {
      const SigBit bit = sigmap_(SigBit(w.get(), i));
      if (bit.is_wire())
        output_port_bits_[bit_id(bit)] = 1;
      else
        output_port_consts_ |= static_cast<uint8_t>(1u << static_cast<unsigned>(bit.data));
    }
  }

  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    const Port out = c->output_port();
    for (const SigBit& raw : c->port(out)) {
      const SigBit bit = sigmap_(raw);
      if (!bit.is_wire())
        continue; // output tied to a constant alias: nothing to index
      Cell*& slot = driver_[bit_id(bit)];
      if (slot != nullptr)
        log_warn("multiple drivers for %s[%d] (cells %s, %s)", bit.wire->name().c_str(),
                 bit.offset, slot->name().c_str(), c->name().c_str());
      else
        slot = c;
    }
  }

  // Combinational dependency edges driver(bit) -> reader, except into Dff.D
  // (sequential boundary) and from Dff.Q (handled as source): one per
  // reader entry of a bit whose driver is combinational.
  const auto comb_driven = [&](uint32_t id) {
    return driver_[id] != nullptr && driver_[id]->type() != CellType::Dff;
  };
  std::vector<int> indegree(cell_reads_.size(), 0);
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    index_cell_reads(c);
    if (c->type() == CellType::Dff)
      continue;
    for (const SigBit& bit : cell_reads_[c->id()])
      if (comb_driven(bit_id(bit)))
        ++indegree[c->id()];
  }

  // Kahn's algorithm over combinational edges, FIFO order. Two properties
  // matter beyond validity:
  //   * deterministic content function — the queue is seeded in module cell
  //     order and readers are released in reader-list order (module cell
  //     order again), so design clones number their AIG/CNF encodings
  //     identically; the fraig engine's solver_conflicts determinism and
  //     every cross-clone bench differential depend on it;
  //   * BFS layering — positions correlate with logic depth, so the fraig
  //     engine's minimum-position class representative is the shallowest
  //     member and merges collapse deep cones onto shallow ones.
  std::vector<Cell*> ready;
  for (const auto& cptr : module.cells())
    if (indegree[cptr->id()] == 0)
      ready.push_back(cptr.get());
  std::vector<uint8_t> released(driver_.size(), 0); // a bit's edges fire once
  topo_.reserve(module.cells().size());
  for (size_t head = 0; head < ready.size();) {
    Cell* c = ready[head++];
    topo_.push_back(c);
    if (c->type() == CellType::Dff)
      continue;
    for (const SigBit& raw : c->port(c->output_port())) {
      const SigBit bit = sigmap_(raw);
      if (!bit.is_wire())
        continue;
      const uint32_t id = bit_id(bit);
      if (released[id] || !comb_driven(id))
        continue;
      released[id] = 1;
      for (Cell* r : readers_[id])
        if (r->type() != CellType::Dff && --indegree[r->id()] == 0)
          ready.push_back(r);
    }
  }
  if (topo_.size() != module.cells().size())
    throw std::logic_error("NetlistIndex: combinational cycle detected");
  for (size_t i = 0; i < topo_.size(); ++i)
    topo_pos_[topo_[i]->id()] = static_cast<int>(i);
}

void NetlistIndex::grow_bits() {
  const size_t n = module_->bit_id_bound();
  if (driver_.size() >= n)
    return;
  driver_.resize(n, nullptr);
  readers_.resize(n);
  output_port_bits_.resize(n, 0);
}

void NetlistIndex::grow_cells() {
  const size_t n = module_->cell_id_bound();
  if (cell_reads_.size() >= n)
    return;
  cell_reads_.resize(n);
  topo_pos_.resize(n, -1);
}

Cell* NetlistIndex::driver(SigBit bit) const {
  const size_t id = bit_slot(sigmap_(bit));
  return id < driver_.size() ? driver_[id] : nullptr;
}

const std::vector<Cell*>& NetlistIndex::readers(SigBit bit) const {
  const size_t id = bit_slot(sigmap_(bit));
  return id < readers_.size() ? readers_[id] : empty_;
}

int NetlistIndex::fanout(SigBit bit) const {
  const SigBit b = sigmap_(bit);
  const size_t id = bit_slot(b);
  int n = id < readers_.size() ? static_cast<int>(readers_[id].size()) : 0;
  if (drives_output_port(b))
    ++n;
  return n;
}

bool NetlistIndex::drives_output_port(SigBit bit) const {
  const SigBit b = sigmap_(bit);
  if (b.is_const())
    return (output_port_consts_ >> static_cast<unsigned>(b.data)) & 1u;
  const size_t id = bit_slot(b);
  return id < output_port_bits_.size() && output_port_bits_[id] != 0;
}

void NetlistIndex::index_cell_reads(Cell* cell) {
  const size_t cid = cell_slot(cell);
  if (cid == kNoSlot)
    throw std::invalid_argument("NetlistIndex: cell is not part of the indexed module");
  grow_bits();
  grow_cells();
  std::vector<SigBit>& reads = cell_reads_[cid];
  reads.clear();
  for (Port p : cell->input_ports())
    for (const SigBit& raw : cell->port(p)) {
      const SigBit bit = sigmap_(raw);
      const size_t id = bit_slot(bit);
      if (id == kNoSlot)
        continue;
      readers_[id].push_back(cell);
      reads.push_back(bit);
    }
}

void NetlistIndex::erase_cell_reads(Cell* cell) {
  const size_t cid = cell_slot(cell);
  if (cid >= cell_reads_.size())
    return;
  for (const SigBit& stored : cell_reads_[cid]) {
    const size_t id = bit_slot(sigmap_(stored)); // re-canonicalize: merges since
    if (id >= readers_.size())
      continue;
    auto& list = readers_[id];
    auto pos = std::find(list.begin(), list.end(), cell);
    if (pos != list.end())
      list.erase(pos); // one occurrence per stored entry (multiset semantics)
  }
  cell_reads_[cid].clear();
}

void NetlistIndex::remove_cell(Cell* cell) {
  erase_cell_reads(cell);
  const size_t cid = cell_slot(cell);
  if (cid < cell_reads_.size())
    std::vector<SigBit>().swap(cell_reads_[cid]);
  for (const SigBit& raw : cell->port(cell->output_port())) {
    const size_t id = bit_slot(sigmap_(raw));
    if (id < driver_.size() && driver_[id] == cell)
      driver_[id] = nullptr;
  }
  if (cid >= topo_pos_.size() || topo_pos_[cid] < 0)
    return;
  // Untouched cells sit at their position; cells added since the last
  // compact_topo were appended at the end.
  const size_t pos = static_cast<size_t>(topo_pos_[cid]);
  if (pos < topo_.size() && topo_[pos] == cell)
    topo_[pos] = nullptr;
  else
    std::replace(topo_.begin(), topo_.end(), cell, static_cast<Cell*>(nullptr));
  topo_pos_[cid] = -1;
  topo_has_holes_ = true;
}

void NetlistIndex::add_cell(Cell* cell, int topo_pos) {
  index_cell_reads(cell); // validates the cell and grows the vectors
  for (const SigBit& raw : cell->port(cell->output_port())) {
    const SigBit bit = sigmap_(raw);
    const size_t id = bit_slot(bit);
    if (id == kNoSlot)
      continue;
    if (driver_[id] == nullptr)
      driver_[id] = cell;
    else if (driver_[id] != cell)
      log_warn("add_cell: %s[%d] already driven by %s (adding %s)", bit.wire->name().c_str(),
               bit.offset, driver_[id]->name().c_str(), cell->name().c_str());
  }
  if (topo_pos_[cell->id()] < 0)
    topo_pos_[cell->id()] = topo_pos;
  topo_.push_back(cell);
  topo_needs_sort_ = true;
}

void NetlistIndex::add_alias(const SigSpec& lhs, const SigSpec& rhs) {
  const int n = std::min(lhs.size(), rhs.size());
  for (int i = 0; i < n; ++i) {
    const SigBit a = sigmap_(lhs[i]);
    const SigBit b = sigmap_(rhs[i]);
    if (a == b)
      continue;
    sigmap_.add(lhs[i], rhs[i]);
    grow_bits();
    const SigBit rep = sigmap_(lhs[i]);
    const size_t rep_id = bit_slot(rep);
    for (const SigBit& old : {a, b}) {
      if (old == rep)
        continue;
      // Reader entries / driver entries only exist for wire keys; a class
      // whose representative became a constant sheds them, exactly as a
      // rebuild (which never indexes constant-canonical bits) would.
      const size_t old_id = bit_slot(old);
      bool was_output = false;
      if (old_id != kNoSlot) {
        std::vector<Cell*> moved = std::move(readers_[old_id]);
        readers_[old_id] = {};
        if (rep_id != kNoSlot)
          readers_[rep_id].insert(readers_[rep_id].end(), moved.begin(), moved.end());
        if (Cell* moved_driver = driver_[old_id]) {
          driver_[old_id] = nullptr;
          if (rep_id != kNoSlot) {
            if (driver_[rep_id] == nullptr)
              driver_[rep_id] = moved_driver;
            else if (driver_[rep_id] != moved_driver)
              log_warn("alias merges two driven nets (cells %s, %s)",
                       driver_[rep_id]->name().c_str(), moved_driver->name().c_str());
          }
        }
        was_output = output_port_bits_[old_id] != 0;
        output_port_bits_[old_id] = 0;
      } else if (old.is_const()) {
        const uint8_t flag = static_cast<uint8_t>(1u << static_cast<unsigned>(old.data));
        was_output = (output_port_consts_ & flag) != 0;
        output_port_consts_ &= static_cast<uint8_t>(~flag);
      }
      if (was_output) {
        if (rep_id != kNoSlot)
          output_port_bits_[rep_id] = 1;
        else if (rep.is_const())
          output_port_consts_ |= static_cast<uint8_t>(1u << static_cast<unsigned>(rep.data));
      }
    }
  }
}

void NetlistIndex::refresh_cell_reads(Cell* cell) {
  erase_cell_reads(cell);
  index_cell_reads(cell);
}

void NetlistIndex::compact_topo() {
  if (!topo_has_holes_ && !topo_needs_sort_)
    return;
  topo_.erase(std::remove(topo_.begin(), topo_.end(), static_cast<Cell*>(nullptr)),
              topo_.end());
  topo_has_holes_ = false;
  if (topo_needs_sort_) {
    // Added cells were appended out of place; restore position order. Ties
    // are possible — several added cells can take the same freed position,
    // and a rewrite plan's ops at one root position DO depend on each other
    // — and stable_sort keeps them in append order, which callers make
    // deterministic (journal order: intra-plan dependencies are appended in
    // program order).
    std::stable_sort(topo_.begin(), topo_.end(), [&](const Cell* a, const Cell* b) {
      return topo_pos_[a->id()] < topo_pos_[b->id()];
    });
    topo_needs_sort_ = false;
  }
  // Renumber to the compacted sequence so positions are unique again and
  // every dependency edge is *strictly* increasing (the invariant a fresh
  // rebuild establishes and index_consistent checks). Tied added cells get
  // distinct positions in their (deterministic) append order; all previously
  // distinct positions keep their relative order.
  for (size_t i = 0; i < topo_.size(); ++i)
    topo_pos_[topo_[i]->id()] = static_cast<int>(i);
}

bool index_consistent(const Module& module, const NetlistIndex& index) {
  NetlistIndex rebuilt(module); // throws on a cycle: a corrupted module fails loudly

  for (const auto& w : module.wires()) {
    for (int i = 0; i < w->width(); ++i) {
      const SigBit bit(w.get(), i);
      if (index.driver(bit) != rebuilt.driver(bit))
        return false;
      if (index.fanout(bit) != rebuilt.fanout(bit))
        return false;
      if (index.drives_output_port(bit) != rebuilt.drives_output_port(bit))
        return false;
      std::vector<Cell*> a = index.readers(bit);
      std::vector<Cell*> b = rebuilt.readers(bit);
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b)
        return false;
    }
  }

  // Topo bookkeeping: every module cell exactly once, dependencies respected.
  // (Callers compare after journal application, so compact_topo has run.)
  if (index.topo_order().size() != module.cells().size())
    return false;
  std::unordered_set<const Cell*> seen;
  for (const Cell* c : index.topo_order())
    if (!seen.insert(c).second)
      return false;
  for (const auto& cptr : module.cells()) {
    Cell* c = cptr.get();
    if (!seen.count(c))
      return false;
    if (c->type() == CellType::Dff)
      continue;
    for (const Port p : c->input_ports()) {
      for (const SigBit& raw : c->port(p)) {
        Cell* d = index.driver(raw);
        if (d != nullptr && d->type() != CellType::Dff &&
            index.topo_position(d) >= index.topo_position(c))
          return false;
      }
    }
  }
  return true;
}

} // namespace smartly::rtlil
