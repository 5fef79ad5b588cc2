// Static timing analysis and area accounting.

#include "mcsn/netlist/timing.hpp"

#include <gtest/gtest.h>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/netlist/stats.hpp"

namespace mcsn {
namespace {

Netlist chain(std::size_t length) {
  Netlist nl("chain");
  NodeId n = nl.add_input("a");
  for (std::size_t i = 0; i < length; ++i) n = nl.inv(n);
  nl.mark_output(n, "y");
  return nl;
}

TEST(Timing, UnitDepthOfChain) {
  EXPECT_EQ(logic_depth(chain(1)), 1u);
  EXPECT_EQ(logic_depth(chain(7)), 7u);
}

TEST(Timing, UnitLibraryDelayEqualsDepth) {
  const Netlist nl = chain(5);
  const TimingReport rep = analyze_timing(nl, CellLibrary::unit());
  EXPECT_DOUBLE_EQ(rep.critical_delay, 5.0);
}

TEST(Timing, CriticalPathEndsAtWorstOutput) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId fast = nl.inv(a);
  const NodeId slow = nl.inv(nl.inv(nl.inv(a)));
  nl.mark_output(fast, "fast");
  nl.mark_output(slow, "slow");
  const TimingReport rep = analyze_timing(nl, CellLibrary::unit());
  EXPECT_DOUBLE_EQ(rep.critical_delay, 3.0);
  ASSERT_FALSE(rep.critical_path.empty());
  EXPECT_EQ(rep.critical_path.back(), slow);
  EXPECT_EQ(rep.critical_path.front(), a);  // walks back to the input
}

TEST(Timing, LoadDependentDelayGrowsWithFanout) {
  // One inverter driving k loads must be slower than driving one.
  auto fanout_circuit = [](int k) {
    Netlist nl;
    const NodeId a = nl.add_input("a");
    const NodeId x = nl.inv(a);
    for (int i = 0; i < k; ++i) {
      nl.mark_output(nl.inv(x), std::string("o").append(std::to_string(i)));
    }
    return nl;
  };
  const auto& lib = CellLibrary::paper_calibrated();
  const double d1 = analyze_timing(fanout_circuit(1), lib).critical_delay;
  const double d8 = analyze_timing(fanout_circuit(8), lib).critical_delay;
  EXPECT_GT(d8, d1);
}

TEST(Timing, AreaSumsCells) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.or2(nl.and2(a, b), nl.inv(a)), "y");
  const auto& lib = CellLibrary::paper_calibrated();
  const double expect = lib.params(CellKind::and2).area +
                        lib.params(CellKind::or2).area +
                        lib.params(CellKind::inv).area;
  EXPECT_DOUBLE_EQ(total_area(nl, lib), expect);
  EXPECT_DOUBLE_EQ(total_area(nl, CellLibrary::unit()), 3.0);
}

TEST(Timing, ResolutionLatencyPerInput) {
  // y = inv(a); z = inv(inv(b)): b's cone is deeper than a's.
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.inv(a), "y");
  nl.mark_output(nl.inv(nl.inv(b)), "z");
  const auto& unit = CellLibrary::unit();
  EXPECT_DOUBLE_EQ(resolution_latency(nl, unit, 0), 1.0);
  EXPECT_DOUBLE_EQ(resolution_latency(nl, unit, 1), 2.0);
  EXPECT_DOUBLE_EQ(worst_resolution_latency(nl, unit),
                   analyze_timing(nl, unit).critical_delay);
}

TEST(Timing, ResolutionLatencyOfSort2Inputs) {
  // Every input of the 2-sort reaches some output; the first Gray bit g_1
  // feeds the whole prefix chain, so its cone is among the deepest, while
  // the last bit g_B only feeds its own outM block.
  const Netlist nl = make_sort2(8);
  const auto& lib = CellLibrary::paper_calibrated();
  const double first = resolution_latency(nl, lib, 0);
  const double last = resolution_latency(nl, lib, 7);
  EXPECT_GT(first, last);
  EXPECT_GT(last, 0.0);
  EXPECT_DOUBLE_EQ(worst_resolution_latency(nl, lib),
                   analyze_timing(nl, lib).critical_delay);
}

TEST(Timing, StatsAggregate) {
  Netlist nl("agg");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.or2(nl.and2(a, b), nl.inv(a)), "y");
  const CircuitStats s = compute_stats(nl);
  EXPECT_EQ(s.gates, 3u);
  EXPECT_EQ(s.and_gates, 1u);
  EXPECT_EQ(s.or_gates, 1u);
  EXPECT_EQ(s.inverters, 1u);
  EXPECT_EQ(s.other_gates, 0u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_TRUE(s.mc_safe);
  EXPECT_GT(s.delay, 0.0);
}

}  // namespace
}  // namespace mcsn
