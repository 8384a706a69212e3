#include "sweep/equiv_classes.hpp"

#include "obs/trace.hpp"
#include "sim/packed_sim.hpp"
#include "util/thread_pool.hpp"

#include <algorithm>

namespace smartly::sweep {

using rtlil::Cell;
using rtlil::CellType;
using rtlil::SigBit;

namespace {

/// Hash of a wire bit that is stable across design clones and process runs
/// (SigBit::hash mixes the wire pointer): wire name + offset.
uint64_t stable_bit_hash(const SigBit& bit) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bit.wire->name())
    h = hash_combine(h, c);
  return hash_combine(h, static_cast<uint64_t>(bit.offset));
}

/// Strict order on signature keys (any fixed total order will do: buckets
/// are only grouped by it, never emitted in it).
bool key_less(const Hash128& a, const Hash128& b) {
  return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
}

} // namespace

EquivClasses::EquivClasses(const EquivClassOptions& options) : options_(options) {
  if (options_.sim_words == 0)
    options_.sim_words = 1;
}

EquivClasses::BitPatterns& EquivClasses::patterns_of(const SigBit& bit) {
  auto [it, inserted] = word_cache_.try_emplace(bit);
  if (inserted)
    it->second.hash = stable_bit_hash(bit);
  return it->second;
}

void EquivClasses::bind(const rtlil::Module& module, const rtlil::NetlistIndex& index) {
  blast_ = aig::aigmap(module, index);

  // Reverse map: AIG input node -> module bit. Several bits can carry the
  // same plain input literal (a cell output strash-folds onto an input, e.g.
  // y = a & a), and blast_.bits iterates in pointer-hash order — so the
  // winner must be chosen deterministically: prefer the true free bit (no
  // combinational driver), then the lowest bit id. Patterns are seeded from
  // the winner's name; a pointer-dependent choice would breach the
  // cross-clone determinism contract.
  input_bits_.assign(blast_.aig.num_inputs(), SigBit());
  input_node_index_.clear();
  for (size_t i = 0; i < blast_.aig.num_inputs(); ++i)
    input_node_index_.emplace(blast_.aig.inputs()[i], i);
  const auto is_free = [&](const SigBit& bit) {
    const rtlil::Cell* driver = index.driver(bit);
    return !driver || driver->type() == rtlil::CellType::Dff;
  };
  for (const auto& [bit, lit] : blast_.bits) {
    if (aig::lit_compl(lit) || !bit.is_wire())
      continue;
    auto it = input_node_index_.find(aig::lit_node(lit));
    if (it == input_node_index_.end())
      continue;
    SigBit& slot = input_bits_[it->second];
    if (!slot.is_wire()) {
      slot = bit;
      continue;
    }
    const bool bit_free = is_free(bit);
    const bool slot_free = is_free(slot);
    if (bit_free != slot_free ? bit_free : rtlil::bit_id(bit) < rtlil::bit_id(slot))
      slot = bit;
  }
  input_patterns_.assign(input_bits_.size(), nullptr);
  for (size_t i = 0; i < input_bits_.size(); ++i)
    if (input_bits_[i].is_wire()) // unmapped inputs (defensive) keep all-0 patterns
      input_patterns_[i] = &patterns_of(input_bits_[i]);

  members_.clear();
  members_.reserve(blast_.bits.size());
  for (const auto& [bit, lit] : blast_.bits) {
    if (!bit.is_wire())
      continue;
    EquivMember m;
    m.bit = bit;
    m.lit = lit;
    Cell* driver = index.driver(bit);
    if (driver && driver->type() != CellType::Dff) {
      m.driver = driver;
      m.topo_pos = index.topo_position(driver);
    }
    m.rank = rtlil::bit_id(bit);
    members_.push_back(m);
  }
}

uint64_t EquivClasses::render_word(const BitPatterns& pat, size_t w) const {
  if (w < options_.sim_words) {
    Rng rng(hash_combine(hash_combine(options_.seed, pat.hash), w));
    return rng.next();
  }
  // Counterexample batch: deterministic fill for every lane (lanes beyond
  // the pool included), then the bit's own counterexample values on top.
  const size_t first = (w - options_.sim_words) * 64;
  const uint64_t fill_seed = options_.seed ^ 0xf111f111f111f111ULL;
  uint64_t word = 0;
  for (size_t lane = 0; lane < 64; ++lane)
    word |= (hash_mix(hash_combine(fill_seed, hash_combine(pat.hash, first + lane))) & 1)
            << lane;
  const auto lo = std::lower_bound(pat.cex.begin(), pat.cex.end(),
                                   std::make_pair(static_cast<uint32_t>(first), false));
  for (auto it = lo; it != pat.cex.end() && it->first < first + 64; ++it) {
    const uint64_t bit = 1ULL << (it->first - first);
    word = it->second ? word | bit : word & ~bit;
  }
  return word;
}

std::vector<EquivClass> EquivClasses::compute(util::ThreadPool* pool) {
  const size_t n_inputs = blast_.aig.num_inputs();
  const size_t n_batches = options_.sim_words + (cex_count_ + 63) / 64;

  // Pattern words are a pure function of (seed, wire name, batch) plus the
  // bit's counterexample values. Each bit renders a batch word once and
  // keeps it across rounds and re-blasts; the pool patches later
  // counterexamples into it (add_counterexample).
  std::vector<std::vector<uint64_t>> batch_inputs(n_batches);
  {
    const obs::Span span("fraig", "fraig.render");
    for (auto& words : batch_inputs)
      words.resize(n_inputs, 0);
    for (size_t i = 0; i < n_inputs; ++i) {
      BitPatterns* pat = input_patterns_[i];
      if (pat == nullptr)
        continue;
      while (pat->words.size() < n_batches)
        pat->words.push_back(render_word(*pat, pat->words.size()));
      for (size_t w = 0; w < n_batches; ++w)
        batch_inputs[w][i] = pat->words[w];
    }
  }

  const sim::SignatureTable table = [&] {
    const obs::Span span("fraig", "fraig.simulate");
    return sim::simulate_signatures(blast_.aig, batch_inputs, pool);
  }();

  const obs::Span bucket_span("fraig", "fraig.bucket");
  // Partition candidate bits by normalized signature: hash each member's
  // signature on the pool, then sort (key, rank) so equal keys form runs.
  // Equality of the 128-bit hash is treated as identity (cone-cache
  // precedent) — a collision could only propose a false candidate, which the
  // SAT confirmation then disproves.
  struct Keyed {
    Hash128 key;
    uint32_t member = 0;
    bool zero = false; ///< normalized signature identically zero
  };
  std::vector<EquivMember> members = members_;
  std::vector<Keyed> keyed(members.size());
  const auto key_range = [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      EquivMember& m = members[j];
      m.inverted = (table.lit_word(m.lit, 0) & 1) != 0;
      Hash128 key{0x243f6a8885a308d3ULL, 0x13198a2e03707344ULL};
      bool zero = true;
      for (size_t w = 0; w < n_batches; ++w) {
        uint64_t v = table.lit_word(m.lit, w);
        if (m.inverted)
          v = ~v;
        zero = zero && v == 0;
        key = hash128_combine(key, v);
      }
      keyed[j] = {key, static_cast<uint32_t>(j), zero};
    }
  };
  constexpr size_t kChunk = 4096;
  const size_t chunks = (members.size() + kChunk - 1) / kChunk;
  if (pool != nullptr && pool->size() > 1 && chunks > 1)
    pool->run_batch(chunks, [&](int, size_t c) {
      key_range(c * kChunk, std::min(members.size(), (c + 1) * kChunk));
    });
  else
    key_range(0, members.size());
  std::sort(keyed.begin(), keyed.end(), [&](const Keyed& a, const Keyed& b) {
    if (a.key != b.key)
      return key_less(a.key, b.key);
    return members[a.member].rank < members[b.member].rank;
  });

  const auto member_less = [](const EquivMember& a, const EquivMember& b) {
    if (a.topo_pos != b.topo_pos)
      return a.topo_pos < b.topo_pos;
    return a.rank < b.rank;
  };

  std::vector<EquivClass> classes;
  for (size_t run = 0; run < keyed.size();) {
    size_t end = run + 1;
    while (end < keyed.size() && keyed[end].key == keyed[run].key)
      ++end;
    EquivClass cls;
    cls.constant = keyed[run].zero;
    cls.members.reserve(end - run);
    for (size_t k = run; k < end; ++k)
      cls.members.push_back(members[keyed[k].member]);
    run = end;
    std::sort(cls.members.begin(), cls.members.end(), member_less);
    bool mergeable = false;
    if (cls.constant) {
      for (const EquivMember& m : cls.members)
        mergeable = mergeable || m.driver != nullptr;
    } else {
      for (size_t i = 1; i < cls.members.size(); ++i)
        mergeable = mergeable || cls.members[i].driver != nullptr;
    }
    if (mergeable)
      classes.push_back(std::move(cls));
  }
  std::sort(classes.begin(), classes.end(), [&](const EquivClass& a, const EquivClass& b) {
    return member_less(a.members.front(), b.members.front());
  });
  return classes;
}

bool EquivClasses::add_counterexample(const InputAssignment& assignment) {
  std::vector<BitPatterns*> pats;
  pats.reserve(assignment.size());
  Hash128 h{0x6a09e667f3bcc908ULL, 0xb5c0fbcfec4d3b2fULL};
  for (const auto& [bit, value] : assignment) {
    pats.push_back(&patterns_of(bit));
    hash128_mix_unordered(h, pats.back()->hash * 2 + (value ? 1 : 0));
  }
  if (!cex_seen_.insert(h).second)
    return false;
  if (cex_count_ >= options_.max_patterns)
    return false;
  const uint32_t idx = static_cast<uint32_t>(cex_count_++);
  const size_t w = options_.sim_words + idx / 64;
  const uint64_t lane = 1ULL << (idx % 64);
  for (size_t k = 0; k < assignment.size(); ++k) {
    BitPatterns& pat = *pats[k];
    if (!pat.cex.empty() && pat.cex.back().first == idx)
      continue; // a bit listed twice: the first value wins
    const bool value = assignment[k].second;
    pat.cex.emplace_back(idx, value);
    if (w < pat.words.size())
      pat.words[w] = value ? pat.words[w] | lane : pat.words[w] & ~lane;
  }
  return true;
}

bool cell_inputs_commutative(CellType t) noexcept {
  switch (t) {
  case CellType::And:
  case CellType::Or:
  case CellType::Xor:
  case CellType::Xnor:
  case CellType::Add:
  case CellType::Mul:
  case CellType::Eq:
  case CellType::Ne:
  case CellType::LogicAnd:
  case CellType::LogicOr:
    return true;
  default:
    return false;
  }
}

namespace {

/// Canonical (port, signal) inputs with commutative operand order normalized
/// — the common substrate of cell_structural_key and the exact comparison.
std::vector<std::pair<rtlil::Port, rtlil::SigSpec>> normalized_inputs(
    const Cell& cell, const rtlil::SigMap& sigmap) {
  std::vector<std::pair<rtlil::Port, rtlil::SigSpec>> inputs;
  for (rtlil::Port port : cell.input_ports())
    inputs.emplace_back(port, sigmap(cell.port(port)));
  if (cell_inputs_commutative(cell.type()) && inputs.size() >= 2 &&
      inputs[1].second.hash() < inputs[0].second.hash())
    std::swap(inputs[0].second, inputs[1].second);
  return inputs;
}

} // namespace

Hash128 cell_structural_key(const Cell& cell, const rtlil::SigMap& sigmap) {
  const rtlil::CellParams& p = cell.params();
  Hash128 k{hash_mix(static_cast<uint64_t>(cell.type())),
            hash_mix(static_cast<uint64_t>(cell.type()) ^ 0x9216d5d98979fb1bULL)};
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.a_width)) << 32) |
                             static_cast<uint32_t>(p.b_width));
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.y_width)) << 32) |
                             static_cast<uint32_t>(p.width));
  k = hash128_combine(k, (static_cast<uint64_t>(static_cast<uint32_t>(p.s_width)) << 2) |
                             (p.a_signed ? 2u : 0u) | (p.b_signed ? 1u : 0u));

  for (const auto& [port, sig] : normalized_inputs(cell, sigmap)) {
    k = hash128_combine(k, static_cast<uint64_t>(port));
    for (const SigBit& bit : sig)
      k = hash128_combine(k, bit.hash());
  }
  return k;
}

bool cell_structurally_identical(const Cell& a, const Cell& b, const rtlil::SigMap& sigmap) {
  if (a.type() != b.type())
    return false;
  const rtlil::CellParams& pa = a.params();
  const rtlil::CellParams& pb = b.params();
  if (pa.a_width != pb.a_width || pa.b_width != pb.b_width || pa.y_width != pb.y_width ||
      pa.width != pb.width || pa.s_width != pb.s_width || pa.a_signed != pb.a_signed ||
      pa.b_signed != pb.b_signed)
    return false;
  return normalized_inputs(a, sigmap) == normalized_inputs(b, sigmap);
}

} // namespace smartly::sweep
