// N-input MC extrema circuits: exhaustive/randomized correctness against
// rank order, cost accounting (roughly half a 2-sort per tournament node),
// and containment.

#include "mcsn/ckt/extrema.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

TEST(Extrema, TwoInputMaxMinExhaustive) {
  const std::size_t bits = 4;
  for (const bool maximum : {true, false}) {
    const Netlist nl = make_extreme_tree(2, bits, maximum);
    ASSERT_TRUE(nl.mc_safe());
    NodeWalkEvaluator ev(nl);
    Word out;
    std::vector<Trit> in;
    const std::vector<Word> all = all_valid_strings(bits);
    for (const Word& g : all) {
      for (const Word& h : all) {
        const Word joined = g + h;
        in.assign(joined.begin(), joined.end());
        ev.run_outputs(in, out);
        const Word want = maximum ? valid_max(g, h) : valid_min(g, h);
        ASSERT_EQ(out, want) << g.str() << " " << h.str();
      }
    }
  }
}

class ExtremaWide : public ::testing::TestWithParam<int> {};

TEST_P(ExtremaWide, RandomVectorsMatchRankExtreme) {
  const int n = GetParam();
  const std::size_t bits = 6;
  for (const bool maximum : {true, false}) {
    const Netlist nl =
        make_extreme_tree(static_cast<std::size_t>(n), bits, maximum);
    NodeWalkEvaluator ev(nl);
    Xoshiro256 rng(static_cast<std::uint64_t>(n) * 31 + maximum);
    Word out;
    std::vector<Trit> in;
    for (int trial = 0; trial < 150; ++trial) {
      in.clear();
      std::uint64_t best_rank = maximum ? 0 : ~std::uint64_t{0};
      for (int c = 0; c < n; ++c) {
        const std::uint64_t r = rng.below(valid_count(bits));
        best_rank = maximum ? std::max(best_rank, r) : std::min(best_rank, r);
        const Word w = valid_from_rank(r, bits);
        in.insert(in.end(), w.begin(), w.end());
      }
      ev.run_outputs(in, out);
      ASSERT_EQ(out, valid_from_rank(best_rank, bits))
          << "n=" << n << " max=" << maximum << " trial=" << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExtremaWide, ::testing::Values(3, 4, 7, 10));

TEST(Extrema, CostIsAboutHalfASort2PerNode) {
  const std::size_t bits = 8;
  const Netlist one = make_extreme_tree(2, bits, true);
  // Half blocks: inverters B-1, PPC as in sort2, B-1 half out blocks + OR.
  const std::size_t full = sort2_gate_count(bits);
  EXPECT_LT(one.gate_count(), full);
  EXPECT_GT(one.gate_count(), full / 2 - bits);
  // Tournament: n-1 nodes.
  const Netlist tree = make_extreme_tree(5, bits, true);
  EXPECT_EQ(tree.gate_count(), 4 * one.gate_count());
}

TEST(Extrema, ContainmentSingleMarginalInput) {
  const std::size_t bits = 5;
  const Netlist nl = make_extreme_tree(4, bits, true);
  NodeWalkEvaluator ev(nl);
  Word out;
  std::vector<Trit> in;
  // The marginal input is the maximum: output must carry exactly its M.
  const Word marginal = valid_from_rank(valid_count(bits) - 2, bits);  // odd
  ASSERT_EQ(marginal.meta_count(), 1u);
  std::vector<Word> ins = {valid_from_rank(4, bits), marginal,
                           valid_from_rank(0, bits), valid_from_rank(8, bits)};
  for (const Word& w : ins) in.insert(in.end(), w.begin(), w.end());
  ev.run_outputs(in, out);
  EXPECT_EQ(out, marginal);
  // If the marginal input is NOT the extreme, the output is stable.
  in.clear();
  ins[1] = valid_from_rank(1, bits);  // marginal but tiny
  ins[2] = valid_from_rank(valid_count(bits) - 1, bits);  // stable max
  for (const Word& w : ins) in.insert(in.end(), w.begin(), w.end());
  ev.run_outputs(in, out);
  EXPECT_TRUE(out.is_stable());
  EXPECT_EQ(out, ins[2]);
}

TEST(Extrema, SingleChannelPassesThrough) {
  const Netlist nl = make_extreme_tree(1, 3, true);
  EXPECT_EQ(nl.gate_count(), 0u);
  const Word w = *Word::parse("01M");
  EXPECT_EQ(evaluate(nl, w), w);
}

}  // namespace
}  // namespace mcsn
