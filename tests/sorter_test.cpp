// The McSorter facade: network selection, end-to-end sorting of valid
// strings and plain integers, stats plumbing, and the const-and-concurrent
// contract of its sorting entry points.

#include "mcsn/sorter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

/// Sorts one integer round through sort_request; the response's Status
/// and decoding must both succeed.
std::vector<std::uint64_t> sorted_values(const McSorter& sorter,
                                       const std::vector<std::uint64_t>& in) {
  const StatusOr<SortRequest> request =
      SortRequest::from_values(sorter.shape(), in);
  EXPECT_TRUE(request.ok()) << request.status().to_string();
  if (!request.ok()) return {};
  const StatusOr<std::vector<std::uint64_t>> sorted =
      sorter.sort_request(*request).values();
  EXPECT_TRUE(sorted.ok()) << sorted.status().to_string();
  return sorted.ok() ? *sorted : std::vector<std::uint64_t>{};
}

TEST(McSorter, PicksOptimalCatalogNetworks) {
  McSorterOptions depth_opt;
  depth_opt.prefer_depth = true;
  McSorterOptions size_opt;
  size_opt.prefer_depth = false;

  EXPECT_EQ(McSorter(4, 4).network().size(), 5u);
  EXPECT_EQ(McSorter(7, 4).network().size(), 16u);
  EXPECT_EQ(McSorter(9, 4).network().size(), 25u);
  EXPECT_EQ(McSorter(10, 4, depth_opt).network().depth(), 7u);
  EXPECT_EQ(McSorter(10, 4, size_opt).network().size(), 29u);
  // Non-catalog size: Batcher.
  EXPECT_TRUE(McSorter(6, 4).network().sorts_all_binary());
}

TEST(McSorter, SortsIntegers) {
  McSorter sorter(8, 6);
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint64_t> vals;
    for (int c = 0; c < 8; ++c) vals.push_back(rng.below(64));
    std::vector<std::uint64_t> expect = vals;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(sorted_values(sorter, vals), expect);
  }
}

TEST(McSorter, SortsMarginalMeasurements) {
  McSorter sorter(4, 5);
  Xoshiro256 rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Word> in;
    std::vector<std::uint64_t> ranks;
    for (int c = 0; c < 4; ++c) {
      const std::uint64_t r = rng.below(valid_count(5));
      ranks.push_back(r);
      in.push_back(valid_from_rank(r, 5));
    }
    const SortResponse rsp =
        sorter.sort_request(*SortRequest::from_words(in));
    ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
    const std::vector<Word> out = rsp.words();
    std::sort(ranks.begin(), ranks.end());
    for (int c = 0; c < 4; ++c) {
      ASSERT_EQ(out[static_cast<std::size_t>(c)],
                valid_from_rank(ranks[static_cast<std::size_t>(c)], 5));
    }
  }
}

TEST(McSorter, StatsReflectUnderlyingNetlist) {
  McSorter sorter(4, 4);
  const CircuitStats s = sorter.stats();
  EXPECT_EQ(s.gates, 5 * 55u);  // 5 comparators x sort2(4)
  EXPECT_TRUE(s.mc_safe);
  EXPECT_GT(s.area, 0.0);
}

TEST(McSorter, MovableAndHeldByValue) {
  McSorter a(4, 4);
  const std::vector<std::uint64_t> in{9, 3, 14, 0};
  const std::vector<std::uint64_t> expect{0, 3, 9, 14};
  ASSERT_EQ(sorted_values(a, in), expect);

  McSorter b(std::move(a));  // move ctor
  EXPECT_EQ(sorted_values(b, in), expect);

  McSorter c(6, 5);
  c = std::move(b);  // move assignment too
  EXPECT_EQ(c.channels(), 4);
  EXPECT_EQ(sorted_values(c, in), expect);

  // Pools/containers can hold sorters by value.
  std::vector<McSorter> pool;
  pool.push_back(McSorter(4, 4));
  pool.push_back(McSorter(7, 3));  // reallocation moves the first element
  EXPECT_EQ(sorted_values(pool[0], in), expect);
  EXPECT_EQ(sorted_values(pool[1], {5, 2, 7, 0, 1, 6, 3}),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 5, 6, 7}));
}

// One const McSorter shared by several threads, each sorting its own
// rounds (metastable inputs included) through sort_request or
// sort_batch_flat concurrently: every output must equal the node-walking
// reference evaluation of the same netlist.
TEST(McSorter, ConstSorterIsSafeToShareAcrossThreads) {
  constexpr int kChannels = 6;
  constexpr std::size_t kBits = 4;
  constexpr int kThreads = 4;
  constexpr std::size_t kRounds = 300;  // > 256: a partial second lane group
  const McSorter sorter(kChannels, kBits);
  const SortShape shape = sorter.shape();

  // Per-thread corpora of valid strings (about half of them marginal).
  std::vector<std::vector<Trit>> corpus(kThreads);
  Xoshiro256 rng(77);
  for (std::vector<Trit>& flat : corpus) {
    for (std::size_t i = 0; i < kRounds * kChannels; ++i) {
      const Word w = valid_from_rank(rng.below(valid_count(kBits)), kBits);
      flat.insert(flat.end(), w.begin(), w.end());
    }
  }
  std::vector<std::vector<Trit>> got(kThreads);
  std::vector<Status> status(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::vector<Trit>& in = corpus[static_cast<std::size_t>(t)];
        std::vector<Trit>& out = got[static_cast<std::size_t>(t)];
        Status& st = status[static_cast<std::size_t>(t)];
        if (t % 2 == 0) {
          out.resize(in.size());
          st = sorter.sort_batch_flat(in, out);
          return;
        }
        // Odd threads: one sort_request per round, then one batch request.
        for (std::size_t r = 0; r < kRounds && st.ok(); ++r) {
          const SortResponse rsp =
              sorter.sort_request(*SortRequest::view(
                  shape, std::span<const Trit>(in).subspan(r * shape.trits(),
                                                           shape.trits())));
          st = rsp.status;
          out.insert(out.end(), rsp.payload.begin(), rsp.payload.end());
        }
        if (!st.ok()) return;
        const SortResponse batch =
            sorter.sort_request(*SortRequest::view_batch(shape, kRounds, in));
        st = batch.status;
        if (st.ok() && batch.payload != out) {
          st = Status::internal("batch request disagrees with per-round");
        }
      });
    }
  }

  NodeWalkEvaluator reference(sorter.netlist());
  Word expect;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(status[t].ok()) << "thread " << t << ": "
                                << status[t].to_string();
    ASSERT_EQ(got[t].size(), corpus[t].size()) << "thread " << t;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t at = r * shape.trits();
      reference.run_outputs(
          std::span<const Trit>(corpus[t]).subspan(at, shape.trits()), expect);
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(),
                             got[t].begin() + static_cast<std::ptrdiff_t>(at)))
          << "thread " << t << ", round " << r;
    }
  }
}

TEST(McSorter, RejectsDegenerateShapes) {
  EXPECT_THROW(McSorter(0, 4), std::invalid_argument);
  EXPECT_THROW(McSorter(4, 0), std::invalid_argument);
}

// Regression: the integer entry points used to silently Gray-encode with
// bits > 64, shifting out of the uint64_t range. Raw trit-word sorting at
// such widths stays legal; only integer requests and decoding must refuse.
TEST(McSorter, IntegerEntryPointsRejectBitsOver64) {
  const McSorter sorter(2, 65);
  const std::vector<std::uint64_t> values{1, 0};
  const StatusOr<SortRequest> request =
      SortRequest::from_values(sorter.shape(), values);
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);

  // The trit-level paths still work at 65 bits.
  const Word lo(65, Trit::zero);
  Word hi(65, Trit::zero);
  hi[0] = Trit::one;  // MSB set: hi > lo in Gray order
  const SortResponse rsp =
      sorter.sort_request(*SortRequest::from_words({hi, lo}));
  ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
  const std::vector<Word> sorted = rsp.words();
  EXPECT_EQ(sorted[0], lo);
  EXPECT_EQ(sorted[1], hi);
  // ...but have no integer form.
  EXPECT_EQ(rsp.values().status().code(), StatusCode::kInvalidArgument);
}

TEST(McSorter, AoiOptionPropagates) {
  McSorterOptions opt;
  opt.sort2.style = OpStyle::aoi_cells;
  McSorter sorter(4, 4, opt);
  EXPECT_FALSE(sorter.stats().mc_safe);  // AOI cells, still MC by tests
  EXPECT_LT(sorter.stats().gates, 5 * 55u);
  // Function unchanged.
  EXPECT_EQ(sorted_values(sorter, {9, 3, 14, 0}),
            (std::vector<std::uint64_t>{0, 3, 9, 14}));
}

}  // namespace
}  // namespace mcsn
