// The arbitrary-shape construction routes (nets/compose/): generalized
// odd-even merge, recursive composition over the optimal catalog leaves,
// the PPC construction, and the NetworkBuilder choice/status surface.
//
// Verification ladder, weakest to strongest:
//   1. 0-1 principle exhaustively (n <= 16) and the merge variant for
//      every (p, q) run split up to 8+8;
//   2. comparator-level differential vs std::sort for every n up to 32;
//   3. gate-level differential vs the rank-sort reference on random valid
//      and marginal (metastable) measurements for every n up to 32;
//   4. every compiled program passes verify_ir, and the 64-lane and
//      256-lane backends agree with the node-walking evaluator.

#include "mcsn/nets/compose/compose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/netlist/verify_ir.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

// --- construction routes: 0-1 principle ------------------------------------

TEST(Compose, CatalogLeavesAreOptimal) {
  // Size/depth pairs are the known optima (Knuth TAOCP vol. 3; Codish et
  // al. for the 9/10-channel results) — the composer's leaf quality is
  // exactly the paper-grade quality these pin down.
  const struct {
    ComparatorNetwork net;
    std::size_t size;
    std::size_t depth;
  } leaves[] = {
      {optimal_2(), 1, 1},  {optimal_3(), 3, 3},  {optimal_5(), 9, 5},
      {optimal_6(), 12, 5}, {optimal_8(), 19, 6},
  };
  for (const auto& leaf : leaves) {
    SCOPED_TRACE(leaf.net.name());
    EXPECT_TRUE(leaf.net.well_formed());
    EXPECT_EQ(leaf.net.size(), leaf.size);
    EXPECT_EQ(leaf.net.depth(), leaf.depth);
    EXPECT_TRUE(leaf.net.sorts_all_binary());
  }
}

TEST(Compose, OddEvenMergeMergesEveryRunSplit) {
  for (int p = 1; p <= 8; ++p) {
    for (int q = 1; q <= 8; ++q) {
      const ComparatorNetwork net = odd_even_merge_network(p, q);
      SCOPED_TRACE(net.name());
      ASSERT_EQ(net.channels(), p + q);
      ASSERT_TRUE(net.well_formed());
      // Merge variant of the 0-1 principle: exhaustive over every binary
      // input whose two runs are each sorted.
      ASSERT_TRUE(net.merges_sorted_halves(p));
    }
  }
  EXPECT_THROW(odd_even_merge_network(0, 3), std::invalid_argument);
  EXPECT_THROW(odd_even_merge_network(3, 0), std::invalid_argument);
}

TEST(Compose, AppendOddEvenMergeRelocatesByBase) {
  // The shared building block must emit the same comparators as the
  // standalone network, shifted by `base` — both routes rely on this.
  const ComparatorNetwork ref = odd_even_merge_network(3, 5);
  std::vector<Comparator> seq;
  append_odd_even_merge(seq, 7, 3, 5);
  std::vector<Comparator> shifted;
  for (const Comparator& c : ref.flattened()) {
    shifted.push_back({c.lo + 7, c.hi + 7});
  }
  // from_flat re-layers (ASAP), so compare as multisets, not sequences.
  const auto by_channels = [](const Comparator& a, const Comparator& b) {
    return std::pair{a.lo, a.hi} < std::pair{b.lo, b.hi};
  };
  std::sort(seq.begin(), seq.end(), by_channels);
  std::sort(shifted.begin(), shifted.end(), by_channels);
  ASSERT_EQ(seq, shifted);
}

TEST(Compose, ComposedSortsAllBinaryTo16) {
  for (int n = 1; n <= 16; ++n) {
    for (const bool prefer_depth : {true, false}) {
      const ComparatorNetwork net = composed_sort_network(n, prefer_depth);
      SCOPED_TRACE(net.name());
      ASSERT_EQ(net.channels(), n);
      ASSERT_TRUE(net.well_formed());
      ASSERT_TRUE(net.sorts_all_binary());
    }
  }
  EXPECT_THROW(composed_sort_network(0), std::invalid_argument);
}

TEST(Compose, PpcSortsAllBinaryTo16) {
  for (const PpcTopology topo : {PpcTopology::ladner_fischer,
                                 PpcTopology::sklansky, PpcTopology::serial}) {
    for (int n = 1; n <= 16; ++n) {
      const ComparatorNetwork net = ppc_sort_network(n, topo);
      SCOPED_TRACE(net.name());
      ASSERT_EQ(net.channels(), n);
      ASSERT_TRUE(net.well_formed());
      ASSERT_TRUE(net.sorts_all_binary());
    }
  }
}

TEST(Compose, PpcRejectsPrefixReusingTopologies) {
  // kogge_stone / han_carlson reuse intermediate prefixes; an in-place
  // comparator network cannot express that, so the route must refuse
  // rather than silently emit a non-sorting network.
  EXPECT_TRUE(ppc_compose_supported(PpcTopology::ladner_fischer));
  EXPECT_TRUE(ppc_compose_supported(PpcTopology::sklansky));
  EXPECT_TRUE(ppc_compose_supported(PpcTopology::serial));
  EXPECT_FALSE(ppc_compose_supported(PpcTopology::kogge_stone));
  EXPECT_FALSE(ppc_compose_supported(PpcTopology::han_carlson));
  EXPECT_THROW(ppc_sort_network(8, PpcTopology::kogge_stone),
               std::invalid_argument);
  EXPECT_THROW(ppc_sort_network(8, PpcTopology::han_carlson),
               std::invalid_argument);
  EXPECT_THROW(ppc_sort_network(0), std::invalid_argument);
}

TEST(Compose, ComposedStaysWithinBatcherBounds) {
  // The composition must never be worse than plain Batcher (its leaves are
  // optimal, its glue identical), and sklansky must be the depth champion
  // among the PPC cones.
  for (const int n : {11, 17, 24, 32}) {
    const ComparatorNetwork batcher = batcher_odd_even(n);
    const ComparatorNetwork composed = composed_sort_network(n, true);
    SCOPED_TRACE(composed.name());
    EXPECT_LE(composed.size(), batcher.size());
    EXPECT_LE(composed.depth(), batcher.depth());
    const ComparatorNetwork sk = ppc_sort_network(n, PpcTopology::sklansky);
    const ComparatorNetwork lf =
        ppc_sort_network(n, PpcTopology::ladner_fischer);
    EXPECT_LE(sk.depth(), lf.depth());
  }
}

// --- comparator-level differential up to 32 channels -----------------------

TEST(Compose, ComparatorDifferentialAgainstStdSortTo32) {
  Xoshiro256 rng(2018);
  for (int n = 2; n <= 32; ++n) {
    const ComparatorNetwork nets[] = {
        composed_sort_network(n, true),
        composed_sort_network(n, false),
        ppc_sort_network(n, PpcTopology::ladner_fischer),
        ppc_sort_network(n, PpcTopology::sklansky),
    };
    for (const ComparatorNetwork& net : nets) {
      SCOPED_TRACE(net.name());
      for (int round = 0; round < 50; ++round) {
        std::vector<std::uint64_t> v;
        v.reserve(static_cast<std::size_t>(n));
        for (int c = 0; c < n; ++c) v.push_back(rng.below(8));  // many ties
        std::vector<std::uint64_t> expect = v;
        std::sort(expect.begin(), expect.end());
        net.apply(v);
        ASSERT_EQ(v, expect);
      }
    }
  }
}

// --- gate-level differential: random + metastable inputs to 32 -------------

// Random measurement ranks — spanning fully-valid codewords and the
// marginal (metastability-containing) strings between them — sorted by the
// elaborated, compiled engine and checked against rank order.
void check_sorter_differential(const McSorter& sorter, std::uint64_t seed,
                               int rounds) {
  const int n = sorter.channels();
  const std::size_t bits = sorter.bits();
  Xoshiro256 rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::vector<Word> in;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < n; ++c) {
      // Odd ranks are the marginal M-containing strings, so roughly half
      // of every round is metastable input.
      const std::uint64_t r = rng.below(valid_count(bits));
      ranks.push_back(r);
      in.push_back(valid_from_rank(r, bits));
    }
    const SortResponse rsp =
        sorter.sort_request(*SortRequest::from_words(in));
    ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
    const std::vector<Word> out = rsp.words();
    std::sort(ranks.begin(), ranks.end());
    for (int c = 0; c < n; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)],
                valid_from_rank(ranks[static_cast<std::size_t>(c)], bits))
          << sorter.network().name() << " n=" << n << " round=" << round
          << " c=" << c;
    }
  }
}

TEST(Compose, ComposedSorterDifferentialRandomAndMetastableTo32) {
  for (int n = 2; n <= 32; ++n) {
    McSorter sorter(n, 4);  // catalog <= 10, composed beyond
    check_sorter_differential(sorter, 9000u + static_cast<std::uint64_t>(n),
                              8);
  }
}

TEST(Compose, SklanskySort2SorterDifferentialTo32) {
  // The depth-minimal sklansky cone inside every 2-sort (the arXiv
  // 1911.00267 depth lever): the other gate-level topology end to end.
  McSorterOptions opt;
  opt.sort2.topology = PpcTopology::sklansky;
  for (const int n : {6, 11, 13, 17, 24, 32}) {
    McSorter sorter(n, 4, opt);
    check_sorter_differential(sorter, 9100u + static_cast<std::uint64_t>(n),
                              8);
  }
}

TEST(Compose, PpcSorterDifferentialRandomAndMetastableTo32) {
  for (const PpcTopology topo :
       {PpcTopology::ladner_fischer, PpcTopology::sklansky}) {
    for (const int n : {5, 11, 17, 24, 32}) {
      McSorter sorter(BuiltNetwork{ppc_sort_network(n, topo)}, 4);
      check_sorter_differential(sorter,
                                9200u + static_cast<std::uint64_t>(n), 6);
    }
  }
}

// --- compiled-program invariants and backend agreement ----------------------

TEST(Compose, VerifyIrPassesOnEveryComposedProgram) {
  for (const int n : {11, 16, 24, 32}) {
    const ComparatorNetwork nets[] = {
        composed_sort_network(n, true),
        ppc_sort_network(n, PpcTopology::ladner_fischer),
        ppc_sort_network(n, PpcTopology::sklansky),
    };
    for (const ComparatorNetwork& net : nets) {
      SCOPED_TRACE(net.name());
      const Netlist nl = elaborate_network(net, 3, sort2_builder());
      const CompiledProgram prog = CompiledProgram::compile(nl);
      const Status st = verify_ir(prog);
      ASSERT_TRUE(st.ok()) << st.to_string();
    }
  }
}

TEST(Compose, AllBackendsMatchLegacyOnComposedNetworks) {
  // The compile_test differential, pointed at composer-generated netlists:
  // node-walking reference vs 64-lane and 256-lane executors on
  // random ternary inputs (arbitrary trits stress every gate path).
  constexpr int kVectors = 80;
  const ComparatorNetwork nets[] = {
      composed_sort_network(12, true),
      composed_sort_network(17, false),
      ppc_sort_network(13, PpcTopology::ladner_fischer),
      ppc_sort_network(11, PpcTopology::sklansky),
      odd_even_merge_network(5, 3),
  };
  Xoshiro256 rng(4242);
  for (const ComparatorNetwork& net : nets) {
    SCOPED_TRACE(net.name());
    const Netlist nl = elaborate_network(net, 2, sort2_builder());
    const std::size_t width = nl.inputs().size();
    const std::size_t outs = nl.outputs().size();

    std::vector<Word> corpus;
    corpus.reserve(kVectors);
    for (int v = 0; v < kVectors; ++v) {
      Word w(width);
      for (std::size_t i = 0; i < width; ++i) {
        w[i] = trit_from_index(static_cast<int>(rng.below(3)));
      }
      corpus.push_back(std::move(w));
    }

    NodeWalkEvaluator legacy(nl);
    std::vector<Word> want;
    want.reserve(kVectors);
    std::vector<Trit> in;
    Word out;
    for (const Word& w : corpus) {
      in.assign(w.begin(), w.end());
      legacy.run_outputs(in, out);
      want.push_back(out);
    }

    const CompiledProgram prog = CompiledProgram::compile(nl);
    ASSERT_TRUE(verify_ir(prog).ok());

    // One vector per run: every lane carries it, lane 0 is read.
    CompiledExecutor<Packed64Backend> single(prog);
    std::vector<PackedTrit> sin(width);
    for (int v = 0; v < kVectors; ++v) {
      for (std::size_t i = 0; i < width; ++i) {
        sin[i] = PackedTrit::splat(corpus[v][i]);
      }
      single.run(sin);
      for (std::size_t o = 0; o < outs; ++o) {
        ASSERT_EQ(single.output_lane(o, 0), want[v][o])
            << "single v=" << v << " o=" << o;
      }
    }

    auto check_packed = [&](auto backend_tag, const char* label) {
      using Backend = decltype(backend_tag);
      CompiledExecutor<Backend> exec(prog);
      std::vector<typename Backend::Value> pin(width);
      for (int base = 0; base < kVectors; base += Backend::kLanes) {
        const int active = std::min(Backend::kLanes, kVectors - base);
        for (std::size_t i = 0; i < width; ++i) {
          for (int lane = 0; lane < active; ++lane) {
            Backend::set_lane(pin[i], lane, corpus[base + lane][i]);
          }
        }
        exec.run(pin);
        for (int lane = 0; lane < active; ++lane) {
          for (std::size_t o = 0; o < outs; ++o) {
            ASSERT_EQ(exec.output_lane(o, lane), want[base + lane][o])
                << label << " v=" << base + lane << " o=" << o;
          }
        }
      }
    };
    check_packed(Packed64Backend{}, "packed64");
    check_packed(Packed256Backend{}, "packed256");
  }
}

// --- NetworkBuilder choice / status surface ---------------------------------

TEST(NetworkBuilder, MapsDegenerateAndOversizedShapesToStatus) {
  NetworkBuilderOptions opt;
  opt.max_channels = 16;
  const NetworkBuilder builder(opt);

  const StatusOr<BuiltNetwork> zero = builder.build(0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);

  const StatusOr<BuiltNetwork> negative = builder.build(-3);
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  const StatusOr<BuiltNetwork> beyond = builder.build(17);
  ASSERT_FALSE(beyond.ok());
  EXPECT_EQ(beyond.status().code(), StatusCode::kUnimplemented);

  const StatusOr<BuiltNetwork> at_bound = builder.build(16);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().to_string();
  EXPECT_TRUE(at_bound->network.sorts_all_binary());
}

TEST(NetworkBuilder, RoutesCatalogBelowElevenChannels) {
  const NetworkBuilder builder;
  for (int n = 1; n <= 10; ++n) {
    const StatusOr<BuiltNetwork> built = builder.build(n);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->network.channels(), n);
  }
  // The exact historical catalog picks.
  EXPECT_EQ(builder.build(4)->network.size(), 5u);
  EXPECT_EQ(builder.build(9)->network.size(), 25u);
  EXPECT_EQ(builder.build(10)->network.depth(), 7u);
}

TEST(NetworkBuilder, PicksTheSmallestCandidate) {
  const NetworkBuilder builder;
  for (const int n : {11, 17, 24, 32}) {
    const ComparatorNetwork pick = builder.build(n)->network;
    for (const ComparatorNetwork& candidate :
         {composed_sort_network(n),
          ppc_sort_network(n, PpcTopology::ladner_fischer),
          ppc_sort_network(n, PpcTopology::sklansky)}) {
      EXPECT_LE(pick.size(), candidate.size())
          << n << " vs " << candidate.name();
    }
  }
}

// Name, size and depth of the served network on a spread of shapes,
// covering both the catalog and the composed ranges: the builder has one
// fixed choice, so these must not move.
TEST(NetworkBuilder, ServesTheParentsNetworks) {
  const struct {
    int channels;
    const char* name;
    std::size_t size;
    std::size_t depth;
  } golden[] = {
      {1, "1-sort", 0, 0},
      {2, "2-sort", 1, 1},
      {3, "3-sort", 3, 3},
      {4, "4-sort", 5, 3},
      {5, "5-sort", 9, 5},
      {6, "6-sort", 12, 5},
      {7, "7-sort", 16, 6},
      {8, "8-sort", 19, 6},
      {9, "9-sort", 25, 8},
      {10, "10-sortd", 31, 7},
      {11, "composed-11d", 37, 9},
      {12, "composed-12d", 41, 9},
      {13, "composed-13d", 48, 10},
      {16, "composed-16d", 63, 10},
      {17, "composed-17d", 73, 12},
      {20, "composed-20d", 97, 11},
      {24, "composed-24d", 127, 14},
      {31, "composed-31d", 186, 15},
      {32, "composed-32d", 191, 15},
      {33, "composed-33d", 206, 17},
      {48, "composed-48d", 367, 20},
      {64, "composed-64d", 543, 21},
      {100, "composed-100d", 1077, 28},
      {128, "composed-128d", 1471, 28},
      {200, "composed-200d", 2827, 36},
      {256, "composed-256d", 3839, 36},
      {500, "composed-500d", 9505, 45},
      {1000, "composed-1000d", 23499, 55},
      {1024, "composed-1024d", 24063, 55},
  };
  const NetworkBuilder builder;
  for (const auto& g : golden) {
    const StatusOr<BuiltNetwork> built = builder.build(g.channels);
    ASSERT_TRUE(built.ok()) << built.status().to_string();
    EXPECT_EQ(built->network.name(), g.name) << g.channels;
    EXPECT_EQ(built->network.size(), g.size) << g.channels;
    EXPECT_EQ(built->network.depth(), g.depth) << g.channels;
  }
}

}  // namespace
}  // namespace mcsn
