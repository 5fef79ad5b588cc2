// Event-driven ternary simulation: convergence to the levelized result,
// containment dynamics (0 -> M -> 1 input excursions), glitch-freedom of the
// MC circuits under input refinement, and VCD export.

#include "mcsn/netlist/eventsim.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/timing.hpp"
#include "mcsn/netlist/vcd.hpp"

namespace mcsn {
namespace {

const CellLibrary& lib() { return CellLibrary::paper_calibrated(); }

void apply_word(EventSimulator& sim, const Word& joined, double t = 0.0) {
  for (std::size_t i = 0; i < joined.size(); ++i) {
    sim.set_input(i, joined[i], t);
  }
}

TEST(EventSim, ConvergesToLevelizedResult) {
  const Netlist nl = make_sort2(4);
  EventSimulator sim(nl, lib());
  const Word joined = *Word::parse("0110") + *Word::parse("0M10");
  apply_word(sim, joined);
  sim.run();
  const Word expect = evaluate(nl, joined);
  for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
    EXPECT_EQ(sim.value(nl.outputs()[o].node), expect[o]) << o;
  }
}

TEST(EventSim, SettlingTimeMatchesStaUpperBound) {
  const Netlist nl = make_sort2(8);
  EventSimulator sim(nl, lib());
  apply_word(sim, valid_from_rank(123, 8) + valid_from_rank(77, 8));
  const double settle = sim.run();
  const double sta = analyze_timing(nl, lib()).critical_delay;
  EXPECT_LE(settle, sta + 1e-9);
  EXPECT_GT(settle, 0.0);
}

// An input excursion: a marginal bit held at M resolves to 1 later. The
// output follows the closure at every stage and ends at the stable value.
TEST(EventSim, InputResolutionPropagatesCleanly) {
  const Netlist nl = make_sort2(2);
  EventSimulator sim(nl, lib());
  // g = 0M (between rg(0)=00 and rg(1)=01), h = 00.
  apply_word(sim, *Word::parse("0M") + *Word::parse("00"));
  sim.run();
  // max = 0M, min = 00 (spec).
  const auto& outs = nl.outputs();
  EXPECT_EQ(sim.value(outs[0].node), Trit::zero);
  EXPECT_EQ(sim.value(outs[1].node), Trit::meta);
  EXPECT_EQ(sim.value(outs[2].node), Trit::zero);
  EXPECT_EQ(sim.value(outs[3].node), Trit::zero);

  // The marginal bit resolves to 1 at t=1000: a refinement, so the netlist
  // must transition glitch-free to the refined result.
  sim.clear_waveforms(1000.0);
  sim.set_input(1, Trit::one, 1000.0);
  sim.run();
  EXPECT_EQ(sim.value(outs[1].node), Trit::one);
  EXPECT_TRUE(sim.glitch_free());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    EXPECT_LE(sim.transition_count(id), 1u) << "node " << id;
  }
}

// Glitch-freedom across all valid inputs with one M at B=4: after settling,
// resolving the M either way changes every node at most once (refinement
// monotonicity of closure circuits).
TEST(EventSim, McCircuitIsGlitchFreeOnResolution) {
  const Netlist nl = make_sort2(4);
  for (std::uint64_t r = 1; r < valid_count(4); r += 2) {
    for (const Trit target : {Trit::zero, Trit::one}) {
      EventSimulator sim(nl, lib());
      const Word g = valid_from_rank(r, 4);  // has exactly one M
      const Word h = valid_from_rank((r * 7) % valid_count(4), 4);
      Word joined = g + h;
      apply_word(sim, joined);
      sim.run();
      sim.clear_waveforms(2000.0);
      sim.set_input(*g.first_meta(), target, 2000.0);
      sim.run();
      EXPECT_TRUE(sim.glitch_free()) << "rank " << r;
      for (NodeId id = 0; id < nl.node_count(); ++id) {
        ASSERT_LE(sim.transition_count(id), 1u)
            << "rank " << r << " node " << id;
      }
    }
  }
}

// De-refinement (a stable bit going marginal) is equally clean: nodes only
// move stable -> M, never to the opposite stable value.
TEST(EventSim, MetastabilityOnsetIsMonotone) {
  const Netlist nl = make_sort2(4);
  EventSimulator sim(nl, lib());
  const Word g = *Word::parse("0110");
  const Word h = *Word::parse("0010");
  apply_word(sim, g + h);
  sim.run();
  sim.clear_waveforms(500.0);
  sim.set_input(1, Trit::meta, 500.0);  // g becomes 0M10 = rg(3)*rg(4)
  sim.run();
  EXPECT_TRUE(sim.glitch_free());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Waveform& w = sim.waveform(id);
    ASSERT_LE(w.size(), 2u);
    if (w.size() == 2) {
      EXPECT_TRUE(is_meta(w[1].value)) << "node " << id;
    }
  }
}

TEST(EventSim, VcdExportStructure) {
  const Netlist nl = make_sort2(2);
  EventSimulator sim(nl, lib());
  sim.set_input(0, Trit::one, 0.0);
  sim.set_input(1, Trit::meta, 10.0);
  sim.run();
  std::ostringstream os;
  write_vcd(os, nl, sim);
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  EXPECT_NE(vcd.find("x"), std::string::npos);  // the M value
}

}  // namespace
}  // namespace mcsn
