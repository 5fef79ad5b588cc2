// Wide-width stress: the paper evaluates up to B=16; the library must scale
// beyond (time-to-digital converters easily produce 20+ bits). Randomized
// verification against the rank specification at B in {24, 32, 48} with the
// packed evaluator, plus rank machinery near the 64-bit boundary.

#include <gtest/gtest.h>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/core/fsm.hpp"
#include "mcsn/core/gray.hpp"
#include "mcsn/core/spec.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/timing.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

class WideSort2 : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WideSort2, PackedRandomAgainstRankSpec) {
  const std::size_t bits = GetParam();
  const Netlist nl = make_sort2(bits);
  ASSERT_TRUE(nl.validate());
  const CompiledProgram prog = CompiledProgram::compile(nl);
  CompiledExecutor<Packed64Backend> ev(prog);
  Xoshiro256 rng(bits);
  std::vector<PackedTrit> in(2 * bits);
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<Word> gs(64), hs(64);
    for (int lane = 0; lane < 64; ++lane) {
      gs[static_cast<std::size_t>(lane)] =
          valid_from_rank(rng.below(valid_count(bits)), bits);
      hs[static_cast<std::size_t>(lane)] =
          valid_from_rank(rng.below(valid_count(bits)), bits);
      for (std::size_t i = 0; i < bits; ++i) {
        in[i].set_lane(lane, gs[static_cast<std::size_t>(lane)][i]);
        in[bits + i].set_lane(lane, hs[static_cast<std::size_t>(lane)][i]);
      }
    }
    ev.run(in);
    for (int lane = 0; lane < 64; ++lane) {
      const auto [mx, mn] =
          sort2_spec_rank(gs[static_cast<std::size_t>(lane)],
                          hs[static_cast<std::size_t>(lane)]);
      for (std::size_t i = 0; i < bits; ++i) {
        ASSERT_EQ(ev.output_lane(i, lane), mx[i]) << bits << " " << lane;
        ASSERT_EQ(ev.output_lane(bits + i, lane), mn[i])
            << bits << " " << lane;
      }
    }
  }
}

TEST_P(WideSort2, LinearSizeLogDepth) {
  const std::size_t bits = GetParam();
  const Netlist nl = make_sort2(bits);
  EXPECT_LE(nl.gate_count(), 31 * bits);
  std::size_t log2b = 0;
  while ((std::size_t{1} << log2b) < bits) ++log2b;
  EXPECT_LE(logic_depth(nl), 3 * (2 * log2b - 1) + 4);
}

INSTANTIATE_TEST_SUITE_P(Widths, WideSort2,
                         ::testing::Values(std::size_t{24}, std::size_t{32},
                                           std::size_t{48}));

TEST(WideWidth, RankMachineryNear64Bits) {
  // valid_rank works up to B=62 (rank needs B+1 bits).
  const std::size_t bits = 62;
  const std::uint64_t huge = (std::uint64_t{1} << bits) - 2;
  const Word top = gray_encode(huge + 1, bits);
  EXPECT_EQ(*valid_rank(top), 2 * (huge + 1));
  // Marginal word between the two largest values.
  Word w = gray_encode(huge, bits);
  w[gray_flip_index(huge, bits)] = Trit::meta;
  EXPECT_EQ(*valid_rank(w), 2 * huge + 1);
  EXPECT_EQ(valid_from_rank(2 * huge + 1, bits), w);
}

TEST(WideWidth, GrayRoundTrip62Bits) {
  Xoshiro256 rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t x = rng.next() & ((std::uint64_t{1} << 62) - 1);
    EXPECT_EQ(gray_decode(gray_encode(x, 62)), x);
  }
}

TEST(WideWidth, FsmModelMatchesRankSpecAt40Bits) {
  const std::size_t bits = 40;
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 500; ++trial) {
    const Word g = valid_from_rank(rng.below(valid_count(bits)), bits);
    const Word h = valid_from_rank(rng.below(valid_count(bits)), bits);
    const auto [mx, mn] = GrayCompareFsm::sort2(g, h);
    const auto [smx, smn] = sort2_spec_rank(g, h);
    ASSERT_EQ(mx, smx);
    ASSERT_EQ(mn, smn);
  }
}

}  // namespace
}  // namespace mcsn
