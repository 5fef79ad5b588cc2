// Network elaboration: gate-count compositionality (Table 8 "gates" = CE
// count x 2-sort gates) and end-to-end MC sorting of valid-string vectors
// w.r.t. the Table 2 total order.

#include "mcsn/nets/elaborate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mcsn/core/valid.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

// Applies the elaborated netlist to a vector of valid strings.
std::vector<Word> run_network(const Netlist& nl, const std::vector<Word>& in,
                              std::size_t bits) {
  std::vector<Trit> flat;
  for (const Word& w : in) {
    flat.insert(flat.end(), w.begin(), w.end());
  }
  const Word out = evaluate(nl, flat);
  std::vector<Word> res(in.size());
  for (std::size_t c = 0; c < in.size(); ++c) {
    res[c] = out.sub(c * bits, (c + 1) * bits - 1);
  }
  return res;
}

TEST(Elaborate, GateCountIsComparatorTimesSort2) {
  for (const std::size_t bits : {2u, 4u, 8u, 16u}) {
    const ComparatorNetwork net = optimal_4();
    const Netlist nl = elaborate_network(net, bits, sort2_builder());
    EXPECT_EQ(nl.gate_count(), net.size() * sort2_gate_count(bits));
    EXPECT_TRUE(nl.validate());
    EXPECT_TRUE(nl.mc_safe());
  }
}

TEST(Elaborate, FourSortExhaustiveSmall) {
  // All 4-vectors of 2-bit valid strings: 7^4 = 2401 cases.
  const std::size_t bits = 2;
  const Netlist nl = elaborate_network(optimal_4(), bits, sort2_builder());
  const std::vector<Word> all = all_valid_strings(bits);
  NodeWalkEvaluator ev(nl);
  for (std::size_t a = 0; a < all.size(); ++a) {
    for (std::size_t b = 0; b < all.size(); ++b) {
      for (std::size_t c = 0; c < all.size(); ++c) {
        for (std::size_t d = 0; d < all.size(); ++d) {
          const std::vector<Word> in = {all[a], all[b], all[c], all[d]};
          const std::vector<Word> out = run_network(nl, in, bits);
          std::vector<std::size_t> ranks = {a, b, c, d};
          std::sort(ranks.begin(), ranks.end());
          for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(out[static_cast<std::size_t>(i)],
                      all[ranks[static_cast<std::size_t>(i)]])
                << a << " " << b << " " << c << " " << d;
          }
        }
      }
    }
  }
}

class ElaborateNetworks
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(ElaborateNetworks, RandomValidVectorsSortByRank) {
  const int which = std::get<0>(GetParam());
  const std::size_t bits = std::get<1>(GetParam());
  const ComparatorNetwork net = paper_networks()[static_cast<std::size_t>(which)];
  const Netlist nl = elaborate_network(net, bits, sort2_builder());
  Xoshiro256 rng(1234 + static_cast<std::uint64_t>(which) + bits);
  const int channels = net.channels();
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Word> in;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < channels; ++c) {
      const std::uint64_t r = rng.below(valid_count(bits));
      in.push_back(valid_from_rank(r, bits));
      ranks.push_back(r);
    }
    const std::vector<Word> out = run_network(nl, in, bits);
    std::sort(ranks.begin(), ranks.end());
    for (int c = 0; c < channels; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)],
                valid_from_rank(ranks[static_cast<std::size_t>(c)], bits))
          << net.name() << " B=" << bits << " trial=" << trial;
    }
  }
}

std::string network_param_name(
    const ::testing::TestParamInfo<std::tuple<int, std::size_t>>& info) {
  static const char* const names[] = {"sort4", "sort7", "sort10size",
                                      "sort10depth"};
  return std::string(names[std::get<0>(info.param)]) + "_b" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    PaperNetworks, ElaborateNetworks,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(std::size_t{2}, std::size_t{4},
                                         std::size_t{8})),
    network_param_name);

TEST(Elaborate, BaselineBuildersProduceSameFunction) {
  const std::size_t bits = 3;
  const ComparatorNetwork net = optimal_4();
  const Netlist a = elaborate_network(net, bits, sort2_builder());
  const Netlist b = elaborate_network(net, bits, sort2_naive_trees_builder());
  const Netlist c = elaborate_network(net, bits, sort2_date17_style_builder());
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Word> in;
    for (int ch = 0; ch < 4; ++ch) {
      in.push_back(valid_from_rank(rng.below(valid_count(bits)), bits));
    }
    const auto oa = run_network(a, in, bits);
    const auto ob = run_network(b, in, bits);
    const auto oc = run_network(c, in, bits);
    EXPECT_EQ(oa, ob);
    EXPECT_EQ(oa, oc);
  }
}

TEST(Elaborate, BincompSortsStableVectors) {
  const std::size_t bits = 4;
  const Netlist nl = elaborate_network(optimal_4(), bits, bincomp_builder());
  EXPECT_FALSE(nl.mc_safe());
  Xoshiro256 rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Word> in;
    std::vector<std::uint64_t> vals;
    for (int c = 0; c < 4; ++c) {
      const std::uint64_t v = rng.below(16);
      in.push_back(Word::from_uint(v, bits));
      vals.push_back(v);
    }
    const std::vector<Word> out = run_network(nl, in, bits);
    std::sort(vals.begin(), vals.end());
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)].to_uint(),
                vals[static_cast<std::size_t>(c)]);
    }
  }
}

}  // namespace
}  // namespace mcsn
