// Netlist construction, bookkeeping and validation.

#include "mcsn/netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mcsn/netlist/dot.hpp"

namespace mcsn {
namespace {

TEST(Netlist, BuildSmallCircuit) {
  Netlist nl("half_adder");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId sum = nl.xor2(a, b);
  const NodeId carry = nl.and2(a, b);
  nl.mark_output(sum, "sum");
  nl.mark_output(carry, "carry");

  EXPECT_EQ(nl.node_count(), 4u);
  EXPECT_EQ(nl.gate_count(), 2u);
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.input_name(0), "a");
  EXPECT_EQ(nl.outputs()[1].name, "carry");
  EXPECT_TRUE(nl.validate());
}

TEST(Netlist, BusHelpers) {
  Netlist nl;
  const Bus g = nl.add_input_bus("g", 4);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(nl.input_name(2), "g[2]");
  nl.mark_output_bus(g, "o");
  EXPECT_EQ(nl.outputs()[3].name, "o[3]");
}

TEST(Netlist, GateHistogramAndMcSafety) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.or2(nl.and2(a, b), nl.inv(a));
  EXPECT_TRUE(nl.mc_safe());
  const auto hist = nl.gate_histogram();
  EXPECT_EQ(hist[static_cast<int>(CellKind::and2)], 1u);
  EXPECT_EQ(hist[static_cast<int>(CellKind::or2)], 1u);
  EXPECT_EQ(hist[static_cast<int>(CellKind::inv)], 1u);

  nl.mux2(a, b, a);
  EXPECT_FALSE(nl.mc_safe());
}

TEST(Netlist, ConstantsAreNotGates) {
  Netlist nl;
  const NodeId c0 = nl.constant(false);
  const NodeId c1 = nl.constant(true);
  EXPECT_EQ(nl.gate_count(), 0u);
  const NodeId o = nl.or2(c0, c1);
  nl.mark_output(o, "o");
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_TRUE(nl.validate());
}

TEST(Netlist, FanoutCounts) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId x = nl.and2(a, b);
  nl.or2(x, a);
  nl.inv(x);
  const auto f = nl.fanouts();
  EXPECT_EQ(f[a], 2u);  // and2 + or2
  EXPECT_EQ(f[b], 1u);
  EXPECT_EQ(f[x], 2u);  // or2 + inv
}

TEST(Netlist, CellProperties) {
  EXPECT_EQ(cell_arity(CellKind::inv), 1);
  EXPECT_EQ(cell_arity(CellKind::and2), 2);
  EXPECT_EQ(cell_arity(CellKind::mux2), 3);
  EXPECT_EQ(cell_arity(CellKind::input), 0);
  EXPECT_TRUE(is_mc_safe(CellKind::or2));
  EXPECT_FALSE(is_mc_safe(CellKind::xor2));
  EXPECT_EQ(cell_name(CellKind::aoi21), "aoi21");
  EXPECT_EQ(cell_lib_name(CellKind::and2), "AND2_X1");
}

TEST(Netlist, DotExportContainsStructure) {
  Netlist nl("tiny");
  const NodeId a = nl.add_input("a");
  nl.mark_output(nl.inv(a), "y");
  std::ostringstream os;
  write_dot(os, nl);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("inv"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("\"y\""), std::string::npos);
}

}  // namespace
}  // namespace mcsn
