// Structural Verilog reader: hand-written netlists, full round trips
// (write -> parse -> formally ternary-equivalent), and error reporting.

#include "mcsn/netlist/verilog_in.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mcsn/ckt/bincomp.hpp"
#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/equiv.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/verilog.hpp"

namespace mcsn {
namespace {

std::string verilog_text(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(os, nl);
  return os.str();
}

TEST(VerilogIn, ParsesHandWrittenModule) {
  const char* src = R"(
    // a tiny mux built from gates
    module tiny (a, b, s, y);
      input a; input b; input s;
      output y;
      wire ns; wire t0; wire t1; wire yw;
      INV_X1  u0 (.A(s), .ZN(ns));
      AND2_X1 u1 (.A1(a), .A2(ns), .Z(t0));
      AND2_X1 u2 (.A1(b), .A2(s), .Z(t1));
      OR2_X1  u3 (.A1(t0), .A2(t1), .Z(yw));
      assign y = yw;
    endmodule
  )";
  VerilogError err;
  const auto nl = parse_verilog(src, &err);
  ASSERT_TRUE(nl) << err.message << " at line " << err.line;
  EXPECT_EQ(nl->name(), "tiny");
  EXPECT_EQ(nl->inputs().size(), 3u);
  EXPECT_EQ(nl->outputs().size(), 1u);
  EXPECT_EQ(nl->gate_count(), 4u);
  EXPECT_EQ(evaluate(*nl, *Word::parse("010")).str(), "0");
  EXPECT_EQ(evaluate(*nl, *Word::parse("011")).str(), "1");
  EXPECT_EQ(evaluate(*nl, *Word::parse("10M")).str(), "M");  // SOP mux leaks
}

TEST(VerilogIn, InstancesInAnyOrderAreSorted) {
  const char* src = R"(
    module reorder (a, y);
      input a; output y;
      wire w1; wire w2;
      INV_X1 u1 (.A(w1), .ZN(w2));   // uses w1 before its driver appears
      INV_X1 u0 (.A(a), .ZN(w1));
      assign y = w2;
    endmodule
  )";
  const auto nl = parse_verilog(src);
  ASSERT_TRUE(nl);
  EXPECT_TRUE(nl->validate());
  EXPECT_EQ(evaluate(*nl, *Word::parse("1")).str(), "1");
}

TEST(VerilogIn, ConstantWires) {
  const char* src = R"(
    module konst (a, y);
      input a; output y;
      wire one = 1'b1; wire w;
      AND2_X1 u0 (.A1(a), .A2(one), .Z(w));
      assign y = w;
    endmodule
  )";
  const auto nl = parse_verilog(src);
  ASSERT_TRUE(nl);
  EXPECT_EQ(evaluate(*nl, *Word::parse("M")).str(), "M");
  EXPECT_EQ(evaluate(*nl, *Word::parse("0")).str(), "0");
}

TEST(VerilogIn, RoundTripSort2FormallyEquivalent) {
  const Netlist orig = make_sort2(6);
  VerilogError err;
  const auto back = parse_verilog(verilog_text(orig), &err);
  ASSERT_TRUE(back) << err.message;
  EXPECT_EQ(back->gate_count(), orig.gate_count());
  EXPECT_EQ(back->gate_histogram(), orig.gate_histogram());
  EXPECT_EQ(back->inputs().size(), orig.inputs().size());
  EXPECT_EQ(back->outputs().size(), orig.outputs().size());
  const FormalEquivResult res = check_equivalence_formal(orig, *back);
  EXPECT_TRUE(res.equivalent) << res.witness->str();
}

TEST(VerilogIn, RoundTripExtendedCells) {
  const Netlist orig = make_bincomp(4);
  const auto back = parse_verilog(verilog_text(orig));
  ASSERT_TRUE(back);
  EXPECT_EQ(back->gate_histogram(), orig.gate_histogram());
  // Boolean equivalence (bincomp is non-MC anyway, but the reader must
  // reproduce the exact ternary function too).
  const FormalEquivResult res = check_equivalence_formal(orig, *back);
  EXPECT_TRUE(res.equivalent);
}

TEST(VerilogIn, ReportsErrors) {
  VerilogError err;
  EXPECT_FALSE(parse_verilog("library (x) {}", &err));
  EXPECT_FALSE(err.message.empty());
  // Unknown cell.
  EXPECT_FALSE(parse_verilog(
      "module m (a, y); input a; output y; wire w;\n"
      "MAGIC_X1 u0 (.A(a), .Z(w)); assign y = w; endmodule",
      &err));
  // Undriven output.
  EXPECT_FALSE(parse_verilog(
      "module m (a, y); input a; output y; endmodule", &err));
  // Cycle.
  EXPECT_FALSE(parse_verilog(
      "module m (a, y); input a; output y; wire w1; wire w2;\n"
      "INV_X1 u0 (.A(w2), .ZN(w1)); INV_X1 u1 (.A(w1), .ZN(w2));\n"
      "assign y = w1; endmodule",
      &err));
  EXPECT_NE(err.message.find("cycle"), std::string::npos);
}

}  // namespace
}  // namespace mcsn
