// NetlistIndex: driver/reader maps, fanout, output-port tracking,
// topological order, topo_position, and cycle detection.
#include "opt/muxtree_walker.hpp"
#include "rtlil/topo.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace smartly;
using rtlil::Cell;
using rtlil::CellType;
using rtlil::Design;
using rtlil::Module;
using rtlil::NetlistIndex;
using rtlil::SigBit;
using rtlil::SigSpec;
using rtlil::Wire;

namespace {

struct Fixture {
  Design design;
  Module* mod;
  Fixture() { mod = design.add_module("top"); }
  Wire* in(const char* name, int w = 1) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_input(x);
    return x;
  }
  Wire* out(const char* name, int w = 1) {
    Wire* x = mod->add_wire(name, w);
    mod->set_port_output(x);
    return x;
  }
};

} // namespace

TEST(NetlistIndex, DriverAndReaders) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y = f.out("y", 4);
  const SigSpec ab = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec n = f.mod->Not(ab);
  f.mod->connect(SigSpec(y), n);

  NetlistIndex index(*f.mod);
  const SigBit ab0 = index.sigmap()(ab[0]);
  Cell* and_cell = index.driver(ab0);
  ASSERT_NE(and_cell, nullptr);
  EXPECT_EQ(and_cell->type(), CellType::And);
  ASSERT_EQ(index.readers(ab0).size(), 1u);
  EXPECT_EQ(index.readers(ab0)[0]->type(), CellType::Not);
  EXPECT_EQ(index.driver(index.sigmap()(SigBit(a, 0))), nullptr) << "inputs have no driver";
}

TEST(NetlistIndex, FanoutCountsReadersAndOutputPorts) {
  Fixture f;
  Wire* a = f.in("a", 1);
  Wire* y = f.out("y", 1);
  Wire* z = f.out("z", 1);
  const SigSpec n = f.mod->Not(SigSpec(a));
  f.mod->connect(SigSpec(y), n);
  f.mod->connect(SigSpec(z), f.mod->Not(n)); // n read by a cell too

  NetlistIndex index(*f.mod);
  const SigBit n0 = index.sigmap()(n[0]);
  EXPECT_TRUE(index.drives_output_port(n0));
  EXPECT_EQ(index.fanout(n0), 2); // one reader cell + output port
}

TEST(NetlistIndex, TopoOrderRespectsDependencies) {
  Fixture f;
  Wire* a = f.in("a", 2);
  Wire* y = f.out("y", 2);
  const SigSpec t1 = f.mod->Not(SigSpec(a));
  const SigSpec t2 = f.mod->Not(t1);
  const SigSpec t3 = f.mod->Not(t2);
  f.mod->connect(SigSpec(y), t3);

  NetlistIndex index(*f.mod);
  const auto& topo = index.topo_order();
  ASSERT_EQ(topo.size(), 3u);
  for (size_t i = 0; i + 1 < topo.size(); ++i)
    EXPECT_LT(index.topo_position(topo[i]), index.topo_position(topo[i + 1]));
  // Each cell's input driver must come earlier.
  for (Cell* c : topo) {
    for (const SigBit& bit : c->port(rtlil::Port::A)) {
      Cell* d = index.driver(index.sigmap()(bit));
      if (d) {
        EXPECT_LT(index.topo_position(d), index.topo_position(c));
      }
    }
  }
}

TEST(NetlistIndex, TopoPositionOfUnknownCellIsMinusOne) {
  Fixture f;
  Wire* a = f.in("a", 1);
  f.mod->connect(SigSpec(f.out("y", 1)), f.mod->Not(SigSpec(a)));
  Design other;
  Module* m2 = other.add_module("other");
  Wire* b = m2->add_wire("b", 1);
  m2->set_port_input(b);
  const SigSpec foreign = m2->Not(SigSpec(b));
  (void)foreign;

  NetlistIndex index(*f.mod);
  EXPECT_EQ(index.topo_position(m2->cells()[0].get()), -1);
}

TEST(NetlistIndex, DffBreaksCombinationalCycles) {
  // q -> not -> d -> dff -> q is fine because the dff cuts the cycle.
  Fixture f;
  Wire* clk = f.in("clk", 1);
  Wire* q = f.mod->add_wire("q", 1);
  Wire* y = f.out("y", 1);
  const SigSpec d = f.mod->Not(SigSpec(q));
  f.mod->add_dff(d, SigSpec(q), SigSpec(clk));
  f.mod->connect(SigSpec(y), SigSpec(q));
  EXPECT_NO_THROW(NetlistIndex index(*f.mod));
}

TEST(NetlistIndex, CombinationalCycleThrows) {
  Fixture f;
  Wire* a = f.in("a", 1);
  Wire* loop = f.mod->add_wire("loop", 1);
  Wire* y = f.out("y", 1);
  // loop = ~(a & loop): a genuine combinational cycle.
  Cell* andc = f.mod->add_cell(CellType::And);
  andc->set_port(rtlil::Port::A, SigSpec(a));
  andc->set_port(rtlil::Port::B, SigSpec(loop));
  Wire* t = f.mod->add_wire("t", 1);
  andc->set_port(rtlil::Port::Y, SigSpec(t));
  andc->infer_widths();
  Cell* notc = f.mod->add_cell(CellType::Not);
  notc->set_port(rtlil::Port::A, SigSpec(t));
  notc->set_port(rtlil::Port::Y, SigSpec(loop));
  notc->infer_widths();
  f.mod->connect(SigSpec(y), SigSpec(loop));
  EXPECT_THROW(NetlistIndex index(*f.mod), std::logic_error);
}

TEST(NetlistIndex, SigmapCanonicalizesThroughConnections) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* alias = f.mod->add_wire("alias", 4);
  Wire* y = f.out("y", 4);
  f.mod->connect(SigSpec(alias), SigSpec(a));
  f.mod->connect(SigSpec(y), f.mod->Not(SigSpec(alias)));

  NetlistIndex index(*f.mod);
  EXPECT_EQ(index.sigmap()(SigBit(alias, 2)), index.sigmap()(SigBit(a, 2)));
  // Readers of the canonical bit must include the Not cell.
  const auto& readers = index.readers(SigBit(alias, 0));
  ASSERT_EQ(readers.size(), 1u);
  EXPECT_EQ(readers[0]->type(), CellType::Not);
}

TEST(NetlistIndex, ConstantTiedBitsCanonicalizeToConstants) {
  Fixture f;
  Wire* t = f.mod->add_wire("t", 2);
  f.mod->connect(SigSpec(t), SigSpec(rtlil::Const(2, 2)));
  NetlistIndex index(*f.mod);
  const SigBit b0 = index.sigmap()(SigBit(t, 0));
  const SigBit b1 = index.sigmap()(SigBit(t, 1));
  EXPECT_TRUE(b0.is_const());
  EXPECT_EQ(b0.data, rtlil::State::S0);
  EXPECT_TRUE(b1.is_const());
  EXPECT_EQ(b1.data, rtlil::State::S1);
}

TEST(NetlistIndex, OtherModulesBitsMiss) {
  // Two identical modules: every bit id of one names a driven, read or
  // output bit of the other, so only the module check keeps them apart.
  const auto build = [](Design& d) {
    Module* m = d.add_module("top");
    Wire* a = m->add_wire("a", 2);
    m->set_port_input(a);
    Wire* y = m->add_wire("y", 2);
    m->set_port_output(y);
    m->connect(SigSpec(y), m->Not(m->Not(SigSpec(a))));
    return m;
  };
  Design d1, d2;
  Module* m1 = build(d1);
  Module* m2 = build(d2);
  NetlistIndex index(*m1);
  for (const auto& w : m2->wires())
    for (int i = 0; i < w->width(); ++i) {
      const SigBit foreign(w.get(), i);
      EXPECT_EQ(index.sigmap()(foreign), foreign);
      EXPECT_EQ(index.driver(foreign), nullptr) << w->name();
      EXPECT_TRUE(index.readers(foreign).empty()) << w->name();
      EXPECT_FALSE(index.drives_output_port(foreign)) << w->name();
      EXPECT_EQ(index.fanout(foreign), 0) << w->name();
    }
  for (const auto& c : m2->cells())
    EXPECT_EQ(index.topo_position(c.get()), -1);
  // The same bit ids in the indexed module do hit.
  EXPECT_NE(index.driver(SigBit(m1->wire("y"), 0)), nullptr);
}

TEST(NetlistIndex, WiresCreatedAfterTheIndexMissUntilIndexed) {
  Fixture f;
  Wire* a = f.in("a", 2);
  f.mod->connect(SigSpec(f.out("y", 2)), f.mod->Not(SigSpec(a)));
  NetlistIndex index(*f.mod);
  // A rebuild-style edit the index is not told about: queries on the new
  // wire's bits miss instead of reading past the per-bit vectors.
  const SigSpec late = f.mod->Not(SigSpec(a));
  EXPECT_EQ(index.driver(late[1]), nullptr);
  EXPECT_TRUE(index.readers(late[1]).empty());
  EXPECT_FALSE(index.drives_output_port(late[1]));
  EXPECT_EQ(index.topo_position(f.mod->cells().back().get()), -1);
}

TEST(NetlistIndex, GrowsForCellsAndAliasesAddedAfterConstruction) {
  Fixture f;
  Wire* a = f.in("a", 4);
  Wire* b = f.in("b", 4);
  Wire* y = f.out("y", 4);
  const SigSpec t = f.mod->And(SigSpec(a), SigSpec(b));
  const SigSpec n = f.mod->Not(t);
  f.mod->connect(SigSpec(y), n);
  Cell* not_cell = f.mod->cells().back().get();
  NetlistIndex index(*f.mod);
  index.sigmap().flatten();

  // add_cell: a late cell driving a late wire, slotted at a taken position
  // (ties keep append order).
  Wire* late = f.mod->add_wire("late", 4);
  Cell* orc = f.mod->add_cell(CellType::Or);
  orc->set_port(rtlil::Port::A, t);
  orc->set_port(rtlil::Port::B, SigSpec(a));
  orc->set_port(rtlil::Port::Y, SigSpec(late));
  orc->infer_widths();
  index.add_cell(orc, index.topo_position(not_cell));
  index.compact_topo();
  EXPECT_TRUE(rtlil::index_consistent(*f.mod, index));
  EXPECT_EQ(index.driver(SigBit(late, 3)), orc);
  EXPECT_EQ(index.readers(t[0]).size(), 2u);

  // add_alias: route a late wire onto an existing net.
  Wire* tap = f.mod->add_wire("tap", 4);
  index.add_alias(SigSpec(tap), SigSpec(late));
  f.mod->connect(SigSpec(tap), SigSpec(late));
  EXPECT_EQ(index.sigmap()(SigBit(tap, 2)), SigBit(late, 2));
  EXPECT_TRUE(rtlil::index_consistent(*f.mod, index));

  // apply_sweep_journal: drop the Not, alias its output onto `late`, and add
  // a late Xor reading the output net — slotted at its driver's position,
  // since that driver is `orc` once the alias lands.
  Wire* x = f.mod->add_wire("x", 4);
  Cell* xorc = f.mod->add_cell(CellType::Xor);
  xorc->set_port(rtlil::Port::A, n);
  xorc->set_port(rtlil::Port::B, SigSpec(b));
  xorc->set_port(rtlil::Port::Y, SigSpec(x));
  xorc->infer_widths();
  opt::SweepJournal journal;
  journal.removed.push_back(not_cell);
  journal.added.push_back({xorc, index.topo_position(orc)});
  journal.connects.emplace_back(n, SigSpec(late));
  opt::apply_sweep_journal(*f.mod, index, journal, /*finalize=*/true);
  EXPECT_TRUE(rtlil::index_consistent(*f.mod, index));
  EXPECT_EQ(index.driver(SigBit(y, 1)), orc);
  EXPECT_TRUE(index.drives_output_port(SigBit(late, 0)));
  EXPECT_EQ(index.topo_order().size(), f.mod->cells().size());
  EXPECT_LT(index.topo_position(orc), index.topo_position(xorc));
}
