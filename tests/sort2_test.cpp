// The paper's 2-sort(B) (Fig. 5): exhaustive functional verification against
// the closure specification for every PPC topology, gate-count golden values
// (Table 7), refinement monotonicity, and packed sweeps at larger widths.

#include "mcsn/ckt/sort2.hpp"

#include <gtest/gtest.h>

#include "mcsn/core/spec.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/check.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/stats.hpp"
#include "mcsn/netlist/timing.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

Word concat_inputs(const Word& g, const Word& h) { return g + h; }

// Exhaustive check over all pairs of valid strings.
void check_exhaustive(const Netlist& nl, std::size_t bits) {
  const std::vector<Word> all = all_valid_strings(bits);
  NodeWalkEvaluator ev(nl);
  Word out;
  std::vector<Trit> in;
  for (const Word& g : all) {
    for (const Word& h : all) {
      const Word joined = concat_inputs(g, h);
      in.assign(joined.begin(), joined.end());
      ev.run_outputs(in, out);
      const auto [mx, mn] = sort2_spec_rank(g, h);
      const Word want = mx + mn;
      ASSERT_EQ(out, want) << nl.name() << " g=" << g.str()
                           << " h=" << h.str();
    }
  }
}

class Sort2Topology : public ::testing::TestWithParam<PpcTopology> {};

TEST_P(Sort2Topology, ExhaustiveUpTo6Bits) {
  for (std::size_t bits = 1; bits <= 6; ++bits) {
    const Netlist nl = make_sort2(bits, Sort2Options{GetParam()});
    ASSERT_TRUE(nl.validate());
    EXPECT_TRUE(nl.mc_safe());
    check_exhaustive(nl, bits);
  }
}

TEST_P(Sort2Topology, GateCountMatchesFormula) {
  for (std::size_t bits = 1; bits <= 24; ++bits) {
    const Netlist nl = make_sort2(bits, Sort2Options{GetParam()});
    EXPECT_EQ(nl.gate_count(), sort2_gate_count(bits, GetParam()))
        << "B=" << bits;
  }
}

// Randomized packed sweep at B = 16: 64 random valid pairs per batch.
TEST_P(Sort2Topology, PackedRandomSweep16Bits) {
  const std::size_t bits = 16;
  const Netlist nl = make_sort2(bits, Sort2Options{GetParam()});
  const CompiledProgram prog = CompiledProgram::compile(nl);
  CompiledExecutor<Packed64Backend> ev(prog);
  Xoshiro256 rng(42);
  std::vector<PackedTrit> in(2 * bits);
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<Word> gs(64), hs(64);
    for (int lane = 0; lane < 64; ++lane) {
      gs[lane] = valid_from_rank(rng.below(valid_count(bits)), bits);
      hs[lane] = valid_from_rank(rng.below(valid_count(bits)), bits);
      for (std::size_t i = 0; i < bits; ++i) {
        in[i].set_lane(lane, gs[lane][i]);
        in[bits + i].set_lane(lane, hs[lane][i]);
      }
    }
    ev.run(in);
    for (int lane = 0; lane < 64; ++lane) {
      const auto [mx, mn] = sort2_spec_rank(gs[lane], hs[lane]);
      for (std::size_t i = 0; i < bits; ++i) {
        ASSERT_EQ(ev.output_lane(i, lane), mx[i]) << "lane " << lane;
        ASSERT_EQ(ev.output_lane(bits + i, lane), mn[i]) << "lane " << lane;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, Sort2Topology, ::testing::ValuesIn(kAllPpcTopologies),
    [](const ::testing::TestParamInfo<PpcTopology>& info) {
      std::string s(ppc_topology_name(info.param));
      for (char& c : s) {
        if (c == '-') c = '_';
      }
      return s;
    });

// Table 7 golden gate counts for the paper's (Ladner-Fischer) construction.
TEST(Sort2, Table7GateCountsGolden) {
  EXPECT_EQ(sort2_gate_count(2), 13u);
  EXPECT_EQ(sort2_gate_count(4), 55u);
  EXPECT_EQ(sort2_gate_count(8), 169u);
  EXPECT_EQ(sort2_gate_count(16), 407u);
  EXPECT_EQ(make_sort2(16).gate_count(), 407u);
}

// Asymptotics: O(B) gates — the construction costs at most 31 gates/bit
// (10 per PPC op with <2 ops/leaf, 10 per out block, 1 inverter) and depth
// grows like O(log B).
TEST(Sort2, AsymptoticSizeAndDepth) {
  for (const std::size_t bits : {8u, 16u, 32u, 64u}) {
    const Netlist nl = make_sort2(bits);
    EXPECT_LE(nl.gate_count(), 31 * bits);
    std::size_t log2b = 0;
    while ((std::size_t{1} << log2b) < bits) ++log2b;
    // 3 levels per ^⋄M, PPC depth <= 2 log2 - 1, + inverter + out block.
    EXPECT_LE(logic_depth(nl), 3 * (2 * log2b - 1) + 4) << bits;
  }
}

// Exhaustive at B=8 for the paper's topology only (261k pairs, still fast).
TEST(Sort2, ExhaustiveLadnerFischer8Bits) {
  const Netlist nl = make_sort2(8);
  check_exhaustive(nl, 8);
}

// Refinement monotonicity: resolving input Ms can only resolve output Ms.
TEST(Sort2, RefinementMonotoneOnValidStrings) {
  const std::size_t bits = 5;
  const Netlist nl = make_sort2(bits);
  const std::vector<Word> all = all_valid_strings(bits);
  std::size_t a = 0, b = 0;
  auto gen = [&]() -> std::optional<Word> {
    if (a >= all.size()) return std::nullopt;
    const Word w = all[a] + all[b];
    if (++b == all.size()) {
      b = 0;
      ++a;
    }
    return w;
  };
  const auto fail = check_refinement_monotone(nl, gen);
  EXPECT_FALSE(fail) << (fail ? fail->describe() : "");
}

// Outputs of the circuit are always valid strings (closure of the order).
TEST(Sort2, OutputsAreValidStrings) {
  const std::size_t bits = 6;
  const Netlist nl = make_sort2(bits);
  NodeWalkEvaluator ev(nl);
  Word out;
  const std::vector<Word> all = all_valid_strings(bits);
  std::vector<Trit> in;
  for (const Word& g : all) {
    for (const Word& h : all) {
      const Word joined = g + h;
      in.assign(joined.begin(), joined.end());
      ev.run_outputs(in, out);
      EXPECT_TRUE(is_valid_string(out.sub(0, bits - 1)));
      EXPECT_TRUE(is_valid_string(out.sub(bits, 2 * bits - 1)));
    }
  }
}

// The AOI-fused circuit (the paper's anticipated transistor-level
// optimization) is functionally identical and strictly smaller/shallower.
TEST(Sort2, AoiVariantEquivalentAndSmaller) {
  for (std::size_t bits = 1; bits <= 5; ++bits) {
    Sort2Options aoi;
    aoi.style = OpStyle::aoi_cells;
    const Netlist fused = make_sort2(bits, aoi);
    const Netlist simple = make_sort2(bits);
    check_exhaustive(fused, bits);
    if (bits > 1) {
      EXPECT_LT(fused.gate_count(), simple.gate_count());
      EXPECT_LE(logic_depth(fused), logic_depth(simple));
    }
  }
}

// The paper's three worked examples at B=4.
TEST(Sort2, PaperExamples) {
  const Netlist nl = make_sort2(4);
  const auto run = [&nl](const char* g, const char* h) {
    return evaluate(nl, *Word::parse(g) + *Word::parse(h)).str();
  };
  EXPECT_EQ(run("1001", "1000"), "10001001");  // max=rg(15), min=rg(14)
  EXPECT_EQ(run("0M10", "0010"), "0M100010");
  EXPECT_EQ(run("0M10", "0110"), "01100M10");
}

}  // namespace
}  // namespace mcsn
