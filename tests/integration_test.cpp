// Cross-module integration: the full pipeline from measurement-style valid
// strings through elaborated MC sorting networks, equivalence of all 2-sort
// implementations on one netlist-level harness, and end-to-end containment
// guarantees (the paper's headline property).

#include <gtest/gtest.h>

#include <algorithm>

#include "mcsn/mcsn.hpp"

namespace mcsn {
namespace {

// All MC 2-sort implementations agree with each other and with the spec on a
// randomized corpus at B=10 (too wide for exhaustive, wide enough to stress
// the PPC structure).
TEST(Integration, AllImplementationsAgreeAtB10) {
  const std::size_t bits = 10;
  std::vector<Netlist> impls;
  for (const PpcTopology t : kAllPpcTopologies) {
    impls.push_back(make_sort2(bits, Sort2Options{t}));
  }
  impls.push_back(make_sort2_naive_trees(bits));
  impls.push_back(make_sort2_date17_style(bits));

  std::vector<NodeWalkEvaluator> evals;
  evals.reserve(impls.size());
  for (const Netlist& nl : impls) evals.emplace_back(nl);

  Xoshiro256 rng(2024);
  Word out;
  std::vector<Trit> in;
  for (int trial = 0; trial < 2000; ++trial) {
    const Word g = valid_from_rank(rng.below(valid_count(bits)), bits);
    const Word h = valid_from_rank(rng.below(valid_count(bits)), bits);
    const auto [mx, mn] = sort2_spec_rank(g, h);
    const Word want = mx + mn;
    const Word joined = g + h;
    in.assign(joined.begin(), joined.end());
    for (std::size_t k = 0; k < impls.size(); ++k) {
      evals[k].run_outputs(in, out);
      ASSERT_EQ(out, want) << impls[k].name() << " g=" << g.str()
                           << " h=" << h.str();
    }
  }
}

// The containment guarantee, end to end: feed n measurements where ONE
// channel is marginal (has an M); after sorting, at most one output channel
// is marginal, the others are exact, and the marginal output sits at the
// correct rank boundary.
TEST(Integration, ContainmentThroughWholeNetwork) {
  const std::size_t bits = 6;
  const Netlist nl =
      elaborate_network(optimal_7(), bits, sort2_builder());
  NodeWalkEvaluator ev(nl);
  Xoshiro256 rng(77);
  Word out;
  std::vector<Trit> in;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Word> words;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < 7; ++c) {
      // Channel 3 gets a marginal measurement (odd rank), others stable.
      const std::uint64_t r = c == 3
                                  ? 2 * rng.below(valid_count(bits) / 2) + 1
                                  : 2 * rng.below(valid_count(bits) / 2 + 1);
      words.push_back(valid_from_rank(r, bits));
      ranks.push_back(r);
    }
    Word joined(0);
    for (const Word& w : words) joined = joined + w;
    in.assign(joined.begin(), joined.end());
    ev.run_outputs(in, out);

    std::sort(ranks.begin(), ranks.end());
    std::size_t meta_channels = 0;
    for (int c = 0; c < 7; ++c) {
      const Word ch = out.sub(static_cast<std::size_t>(c) * bits,
                              (static_cast<std::size_t>(c) + 1) * bits - 1);
      const auto r = valid_rank(ch);
      ASSERT_TRUE(r) << "non-valid output channel";
      ASSERT_EQ(*r, ranks[static_cast<std::size_t>(c)]);
      meta_channels += ch.is_stable() ? 0 : 1;
    }
    EXPECT_EQ(meta_channels, 1u);  // exactly the one marginal input survives
  }
}

// Network-level glitch freedom: resolve the marginal channel's M after
// settling; the elaborated 7-sort netlist transitions monotonically.
TEST(Integration, NetworkLevelResolutionIsGlitchFree) {
  const std::size_t bits = 3;
  const Netlist nl = elaborate_network(optimal_4(), bits, sort2_builder());
  EventSimulator sim(nl, CellLibrary::paper_calibrated());
  const Word a = valid_from_rank(5, bits);  // marginal
  const Word b = valid_from_rank(2, bits);
  const Word c = valid_from_rank(8, bits);
  const Word d = valid_from_rank(12, bits);
  const Word joined = a + b + c + d;
  for (std::size_t i = 0; i < joined.size(); ++i) {
    sim.set_input(i, joined[i], 0.0);
  }
  sim.run();
  sim.clear_waveforms(5000.0);
  sim.set_input(*a.first_meta(), Trit::one, 5000.0);
  sim.run();
  EXPECT_TRUE(sim.glitch_free());
}

// Sanity tie between measured stats and refdata at every Table 7 point.
TEST(Integration, MeasuredStatsTrackPaper) {
  for (const int bits : {2, 4, 8, 16}) {
    const CircuitStats s =
        compute_stats(make_sort2(static_cast<std::size_t>(bits)));
    const auto ref = refdata::table7_row(refdata::Circuit::here, bits);
    EXPECT_EQ(s.gates, ref->gates);
    EXPECT_NEAR(s.area, ref->area, 0.001 * ref->area);
    // Delay: calibrated model, require within 20% of the published value.
    EXPECT_NEAR(s.delay, ref->delay, 0.20 * ref->delay) << "B=" << bits;
  }
}

// The umbrella header exposes a coherent public API (compile-time check via
// odr-use of a few symbols from each layer).
TEST(Integration, UmbrellaHeaderSmoke) {
  EXPECT_EQ(trit_and(Trit::one, Trit::meta), Trit::meta);
  EXPECT_EQ(gray_decode(gray_encode(9, 5)), 9u);
  EXPECT_EQ(sort2_gate_count(16), 407u);
  EXPECT_TRUE(optimal_4().sorts_all_binary());
  EXPECT_EQ(refdata::table7().size(), 12u);
}

}  // namespace
}  // namespace mcsn
