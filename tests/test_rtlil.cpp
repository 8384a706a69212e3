#include "rtlil/design_stats.hpp"
#include "rtlil/module.hpp"
#include "rtlil/sigmap.hpp"
#include "rtlil/topo.hpp"

#include "util/hashing.hpp"

#include <gtest/gtest.h>

#include <map>

using namespace smartly::rtlil;

TEST(Module, WireAndCellNamesAreUnique) {
  Design d;
  Module* m = d.add_module("top");
  m->add_wire("w", 4);
  EXPECT_THROW(m->add_wire("w", 2), std::invalid_argument);
  m->add_cell(CellType::And, "c");
  EXPECT_THROW(m->add_cell(CellType::Or, "c"), std::invalid_argument);
  EXPECT_THROW(d.add_module("top"), std::invalid_argument);
}

TEST(Module, PortsKeepRegistrationOrder) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* y = m->add_wire("y", 1);
  m->set_port_input(a);
  m->set_port_output(y);
  ASSERT_EQ(m->ports().size(), 2u);
  EXPECT_EQ(m->ports()[0], a);
  EXPECT_EQ(m->ports()[1], y);
  EXPECT_EQ(a->port_id, 1);
  EXPECT_EQ(y->port_id, 2);
}

TEST(Module, BuildersInferWidthsAndPassCheck) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  Wire* b = m->add_wire("b", 4);
  const SigSpec sum = m->Add(SigSpec(a), SigSpec(b), 5);
  EXPECT_EQ(sum.size(), 5);
  const SigSpec eq = m->Eq(SigSpec(a), SigSpec(b));
  EXPECT_EQ(eq.size(), 1);
  const SigSpec y = m->Mux(SigSpec(a), SigSpec(b), eq);
  EXPECT_EQ(y.size(), 4);
  EXPECT_NO_THROW(m->check());
}

TEST(Module, ConnectRejectsWidthMismatch) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  Wire* b = m->add_wire("b", 2);
  EXPECT_THROW(m->connect(SigSpec(a), SigSpec(b)), std::invalid_argument);
}

TEST(Module, RemoveCellsDropsLookup) {
  Design d;
  Module* m = d.add_module("top");
  Cell* c = m->add_cell(CellType::And, "a1");
  EXPECT_EQ(m->cell("a1"), c);
  m->remove_cell(c);
  EXPECT_EQ(m->cell("a1"), nullptr);
  EXPECT_EQ(m->cell_count(), 0u);
}

TEST(SigMapTest, AliasChainsCollapseTowardDrivers) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* b = m->add_wire("b", 1);
  Wire* c = m->add_wire("c", 1);
  m->connect(SigSpec(b), SigSpec(a)); // b aliases a
  m->connect(SigSpec(c), SigSpec(b)); // c aliases b
  SigMap sm(*m);
  EXPECT_EQ(sm(SigBit(c, 0)), sm(SigBit(a, 0)));
  EXPECT_EQ(sm(SigBit(b, 0)), sm(SigBit(a, 0)));
}

TEST(SigMapTest, ConstantsWinAsRepresentatives) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  m->connect(SigSpec(a), SigSpec(State::S1));
  SigMap sm(*m);
  EXPECT_TRUE(sm(SigBit(a, 0)).is_const());
  EXPECT_EQ(sm(SigBit(a, 0)).data, State::S1);
}

TEST(SigMapTest, DefaultConstructedIsIdentityUntilAdd) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 2);
  Wire* b = m->add_wire("b", 2);
  SigMap sm;
  EXPECT_EQ(sm(SigBit(a, 1)), SigBit(a, 1));
  EXPECT_EQ(sm(SigBit(State::Sx)), SigBit(State::Sx));
  EXPECT_EQ(sm(SigSpec(b)), SigSpec(b));
  sm.add(SigSpec(a), SigSpec(b)); // binds the map to `top`
  EXPECT_EQ(sm(SigBit(a, 0)), SigBit(b, 0));
  EXPECT_EQ(sm(SigBit(a, 1)), SigBit(b, 1));
  sm.add(SigBit(b, 1), SigBit(State::S0));
  EXPECT_EQ(sm(SigBit(a, 1)), SigBit(State::S0));

  Module* other = d.add_module("other");
  Wire* o = other->add_wire("o", 1);
  EXPECT_EQ(sm(SigBit(o, 0)), SigBit(o, 0)) << "another module's bits are their own rep";
  EXPECT_THROW(sm.add(SigBit(o, 0), SigBit(a, 0)), std::invalid_argument);
}

namespace {

/// The original map-based union-find, kept as the differential reference:
/// same representative rule (constants win, otherwise the rhs), no
/// compression (which never changes a representative).
struct ReferenceSigMap {
  std::map<SigBit, SigBit> parent;

  SigBit find(SigBit bit) const {
    for (auto it = parent.find(bit); it != parent.end(); it = parent.find(bit))
      bit = it->second;
    return bit;
  }
  void add(SigBit a, SigBit b) {
    a = find(a);
    b = find(b);
    if (a == b)
      return;
    if (a.is_const())
      parent[b] = a;
    else
      parent[a] = b;
  }
};

} // namespace

TEST(SigMapTest, MatchesMapReferenceUnderRandomConnects) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    smartly::Rng rng(seed);
    Design d;
    Module* m = d.add_module("top");
    std::vector<Wire*> wires;
    const auto add_wire = [&] {
      wires.push_back(m->add_wire("w" + std::to_string(wires.size()),
                                  1 + static_cast<int>(rng.below(6))));
    };
    for (int i = 0; i < 6; ++i)
      add_wire();
    const auto random_bit = [&]() -> SigBit {
      if (rng.below(5) == 0)
        return SigBit(static_cast<State>(rng.below(4)));
      Wire* w = wires[rng.below(wires.size())];
      return SigBit(w, static_cast<int>(rng.below(static_cast<uint64_t>(w->width()))));
    };

    SigMap sm;
    if (seed % 2 == 0)
      sm = SigMap(*m); // the module-bound constructor (no connections yet)
    ReferenceSigMap ref;
    for (int step = 0; step < 200; ++step) {
      switch (rng.below(8)) {
      case 0:
        add_wire(); // a late wire: ids beyond everything stored so far
        break;
      case 1:
        sm.flatten();
        break;
      case 2: { // constant-constant
        const SigBit a(static_cast<State>(rng.below(4)));
        const SigBit b(static_cast<State>(rng.below(4)));
        sm.add(a, b);
        ref.add(a, b);
        break;
      }
      default: {
        const SigBit a = random_bit();
        const SigBit b = random_bit();
        sm.add(a, b);
        ref.add(a, b);
        break;
      }
      }
      for (Wire* w : wires)
        for (int i = 0; i < w->width(); ++i)
          ASSERT_EQ(sm(SigBit(w, i)), ref.find(SigBit(w, i)))
              << "seed " << seed << " step " << step << " bit " << w->name() << "[" << i << "]";
      for (int s = 0; s < 4; ++s)
        ASSERT_EQ(sm(SigBit(static_cast<State>(s))), ref.find(SigBit(static_cast<State>(s))))
            << "seed " << seed << " step " << step << " const " << s;
    }
  }
}

TEST(Module, BitAndCellIdsAreDenseAndNeverReused) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 3);
  Wire* b = m->add_wire("b", 2);
  Wire* c = m->add_wire("c", 4);
  EXPECT_EQ(a->bit_base(), 0u);
  EXPECT_EQ(b->bit_base(), 3u);
  EXPECT_EQ(c->bit_base(), 5u);
  EXPECT_EQ(bit_id(SigBit(c, 3)), 8u);
  EXPECT_EQ(m->bit_id_bound(), 9u);

  m->remove_wire(b);
  Wire* e = m->add_wire("e", 1);
  EXPECT_EQ(e->bit_base(), 9u) << "ids of a removed wire are not handed out again";
  // Rank order (creation order, offset) survives the removal.
  EXPECT_LT(bit_id(SigBit(a, 2)), bit_id(SigBit(c, 0)));
  EXPECT_LT(bit_id(SigBit(c, 3)), bit_id(SigBit(e, 0)));

  Cell* x = m->add_cell(CellType::Not, "x");
  Cell* y = m->add_cell(CellType::Not, "y");
  EXPECT_EQ(x->id(), 0u);
  EXPECT_EQ(y->id(), 1u);
  m->remove_cell(x);
  Cell* z = m->add_cell(CellType::Not, "z");
  EXPECT_EQ(z->id(), 2u);
  EXPECT_EQ(m->cell_id_bound(), 3u);

  const Cell detached(m, "$probe", CellType::Not);
  EXPECT_EQ(detached.id(), Cell::kNoId);
}

TEST(CloneDesign, CopiesAndRestoresRestartIdsDense) {
  Design d;
  Module* m = d.add_module("top");
  Wire* gone = m->add_wire("gone", 5);
  Wire* a = m->add_wire("a", 2);
  m->set_port_input(a);
  m->remove_wire(gone);
  Cell* dead = m->add_cell(CellType::Not, "dead");
  m->remove_cell(dead);
  Wire* y = m->add_wire("y", 2);
  m->set_port_output(y);
  m->connect(SigSpec(y), m->Not(SigSpec(a)));
  ASSERT_EQ(a->bit_base(), 5u);

  const auto expect_dense = [](const Module& mod) {
    uint32_t next = 0;
    for (const auto& w : mod.wires()) {
      EXPECT_EQ(w->bit_base(), next) << w->name();
      next += static_cast<uint32_t>(w->width());
    }
    EXPECT_EQ(mod.bit_id_bound(), next);
    uint32_t cid = 0;
    for (const auto& c : mod.cells())
      EXPECT_EQ(c->id(), cid++) << c->name();
    EXPECT_EQ(mod.cell_id_bound(), cid);
  };
  auto copy = clone_design(d);
  expect_dense(*copy->top());
  EXPECT_EQ(dump_module(*copy->top()), dump_module(*m));

  // restore_module over a module whose counters ran ahead restarts at 0.
  Design other;
  Module* target = other.add_module("top");
  for (int i = 0; i < 3; ++i)
    target->Not(SigSpec(target->add_wire("t" + std::to_string(i), 4)));
  restore_module(*target, *m);
  expect_dense(*target);
  EXPECT_EQ(dump_module(*target), dump_module(*m));
}

TEST(NetlistIndexTest, DriversReadersAndTopo) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 2);
  m->set_port_input(a);
  const SigSpec n1 = m->Not(SigSpec(a));
  const SigSpec n2 = m->Not(n1);
  Wire* y = m->add_wire("y", 2);
  m->set_port_output(y);
  m->connect(SigSpec(y), n2);

  NetlistIndex idx(*m);
  Cell* first = idx.driver(n1[0]);
  Cell* second = idx.driver(n2[0]);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_NE(first, second);
  EXPECT_EQ(idx.readers(n1[0]).size(), 1u);
  EXPECT_EQ(idx.readers(n1[0])[0], second);
  EXPECT_TRUE(idx.drives_output_port(n2[0]));
  EXPECT_EQ(idx.fanout(n2[0]), 1); // output port counts as one

  // Topological order puts first before second.
  const auto& topo = idx.topo_order();
  const auto p1 = std::find(topo.begin(), topo.end(), first);
  const auto p2 = std::find(topo.begin(), topo.end(), second);
  EXPECT_LT(p1, p2);
}

TEST(NetlistIndexTest, DffBreaksCombLoop) {
  Design d;
  Module* m = d.add_module("top");
  Wire* clk = m->add_wire("clk", 1);
  m->set_port_input(clk);
  Wire* q = m->add_wire("q", 1);
  const SigSpec n = m->Not(SigSpec(q));
  m->add_dff(n, SigSpec(q), SigSpec(clk)); // q <= ~q : fine through a dff
  EXPECT_NO_THROW(NetlistIndex idx(*m));
}

TEST(NetlistIndexTest, CombinationalCycleThrows) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 1);
  Wire* b = m->add_wire("b", 1);
  Cell* c1 = m->add_cell(CellType::Not);
  c1->set_port(Port::A, SigSpec(a));
  c1->set_port(Port::Y, SigSpec(b));
  c1->infer_widths();
  Cell* c2 = m->add_cell(CellType::Not);
  c2->set_port(Port::A, SigSpec(b));
  c2->set_port(Port::Y, SigSpec(a));
  c2->infer_widths();
  EXPECT_THROW(NetlistIndex idx(*m), std::logic_error);
}

TEST(CloneDesign, DeepCopyIsIndependentAndIdentical) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 4);
  m->set_port_input(a);
  Wire* y = m->add_wire("y", 4);
  m->set_port_output(y);
  m->connect(SigSpec(y), m->Not(SigSpec(a)));

  auto copy = clone_design(d);
  Module* cm = copy->top();
  ASSERT_NE(cm, nullptr);
  EXPECT_EQ(cm->cell_count(), m->cell_count());
  EXPECT_EQ(cm->wires().size(), m->wires().size());
  EXPECT_EQ(dump_module(*cm), dump_module(*m));
  // Mutating the copy leaves the original intact.
  cm->add_wire("extra", 1);
  EXPECT_FALSE(m->has_wire("extra"));
}

TEST(Stats, CountsCellKinds) {
  Design d;
  Module* m = d.add_module("top");
  Wire* a = m->add_wire("a", 2);
  Wire* s = m->add_wire("s", 1);
  m->Mux(SigSpec(a), SigSpec(a), SigSpec(s));
  m->Eq(SigSpec(a), SigSpec(a));
  const ModuleStats st = compute_stats(*m);
  EXPECT_EQ(st.mux_cells, 1u);
  EXPECT_EQ(st.eq_cells, 1u);
  EXPECT_EQ(st.cells, 2u);
}
