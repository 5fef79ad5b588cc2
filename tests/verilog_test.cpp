// Structural Verilog export: module structure, cell instances with NanGate
// pin names, name sanitization, and a full 2-sort dump.

#include "mcsn/netlist/verilog.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mcsn/ckt/bincomp.hpp"
#include "mcsn/ckt/sort2.hpp"

namespace mcsn {
namespace {

std::string verilog_text(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(os, nl);
  return os.str();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(Verilog, SmallCircuitStructure) {
  Netlist nl("demo");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.or2(nl.and2(a, b), nl.inv(a)), "y");
  const std::string v = verilog_text(nl);
  EXPECT_NE(v.find("module demo (a, b, y);"), std::string::npos);
  EXPECT_NE(v.find("input a;"), std::string::npos);
  EXPECT_NE(v.find("output y;"), std::string::npos);
  EXPECT_NE(v.find("AND2_X1"), std::string::npos);
  EXPECT_NE(v.find("OR2_X1"), std::string::npos);
  EXPECT_NE(v.find("INV_X1"), std::string::npos);
  EXPECT_NE(v.find(".ZN("), std::string::npos);  // inverter output pin
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  // The do-not-resynthesize warning is part of the contract.
  EXPECT_NE(v.find("do NOT resynthesize"), std::string::npos);
}

TEST(Verilog, BusNamesSanitized) {
  Netlist nl("bus");
  const Bus g = nl.add_input_bus("g", 2);
  nl.mark_output_bus({nl.inv(g[0]), nl.inv(g[1])}, "max");
  const std::string v = verilog_text(nl);
  EXPECT_NE(v.find("g_0"), std::string::npos);
  EXPECT_NE(v.find("max_1"), std::string::npos);
  EXPECT_EQ(v.find('['), std::string::npos);  // no raw brackets anywhere
}

TEST(Verilog, Sort2InstanceCountsMatchGateCounts) {
  const Netlist nl = make_sort2(8);
  const std::string v = verilog_text(nl);
  const auto hist = nl.gate_histogram();
  EXPECT_EQ(count_occurrences(v, "AND2_X1 "),
            hist[static_cast<int>(CellKind::and2)]);
  EXPECT_EQ(count_occurrences(v, "OR2_X1 "),
            hist[static_cast<int>(CellKind::or2)]);
  EXPECT_EQ(count_occurrences(v, "INV_X1 "),
            hist[static_cast<int>(CellKind::inv)]);
  // 169 instances total at B=8.
  EXPECT_EQ(count_occurrences(v, "_X1 u"), nl.gate_count());
}

TEST(Verilog, ExtendedCellsUseThreePinConventions) {
  const Netlist nl = make_bincomp(4);
  const std::string v = verilog_text(nl);
  EXPECT_NE(v.find("MUX2_X1"), std::string::npos);
  EXPECT_NE(v.find(".S("), std::string::npos);   // mux select pin
  EXPECT_NE(v.find("XNOR2_X1"), std::string::npos);
  EXPECT_NE(v.find("AO21_X1"), std::string::npos);
  EXPECT_NE(v.find(".B1("), std::string::npos);  // AO21 paired pin
}

TEST(Verilog, ConstantsEmitLiterals) {
  Netlist nl("konst");
  const NodeId c = nl.constant(true);
  const NodeId a = nl.add_input("a");
  nl.mark_output(nl.and2(c, a), "y");
  const std::string v = verilog_text(nl);
  EXPECT_NE(v.find("1'b1"), std::string::npos);
}

}  // namespace
}  // namespace mcsn
