// Utilities: table printer, CLI parser, RNG determinism, histogram,
// persistent thread pool, and load-generation guards.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <limits>
#include <locale>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mcsn/util/cli.hpp"
#include "mcsn/util/histogram.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"
#include "mcsn/util/table.hpp"
#include "mcsn/util/thread_pool.hpp"

namespace mcsn {
namespace {

TEST(TextTable, AlignsColumnsAndRules) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_rule();
  t.add_row({"longer-name", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  // Header rule + rule before second row + top/bottom = 4 rules.
  std::size_t rules = 0;
  std::istringstream ss(s);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(1000.0, 0), "1000");
  EXPECT_EQ(TextTable::pct(71.578, 2), "71.58%");
}

TEST(Cli, ParsesFlagsAndPositionals) {
  // Note: "--flag value" always binds the value to the flag; a value-less
  // flag must be followed by another flag or end-of-line.
  const char* argv[] = {"prog", "--bits", "16",  "pos1",
                        "pos2", "--ppc=lf", "--quiet"};
  const CliArgs args(7, argv);
  EXPECT_EQ(args.get_or("bits", ""), "16");
  EXPECT_EQ(args.get_long_or("bits", 0), 16);
  EXPECT_EQ(args.get_or("ppc", ""), "lf");
  EXPECT_TRUE(args.has("quiet"));
  EXPECT_FALSE(args.has("verbose"));
  EXPECT_EQ(args.get_long_or("missing", 7), 7);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
  EXPECT_EQ(args.positional()[1], "pos2");
}

TEST(Histogram, ExactBelowEightAndEmptySafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v : {0, 1, 2, 3, 4, 5, 6, 7}) h.record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.quantile(0.5), 3u);  // rank-4 value (1-based) of 0..7
  EXPECT_EQ(h.quantile(1.0), 7u);
  EXPECT_NEAR(h.mean(), 3.5, 1e-12);
}

TEST(Histogram, EmptyAccessorsAndJsonAreAllZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.json(),
            "{\"count\": 0, \"min\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0, "
            "\"max\": 0, \"mean\": 0}");
}

TEST(Histogram, SingleSampleCollapsesEveryStatistic) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  // One sample: every quantile is that sample (bucket upper bounds clamp
  // to the observed max).
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), 42u) << q;
  }
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.record(v);
  // Log buckets with 8 sub-buckets: <= 1/16 relative error.
  for (const double q : {0.5, 0.9, 0.99}) {
    const double exact = q * 10000.0;
    const double got = static_cast<double>(h.quantile(q));
    EXPECT_GE(got, exact * (1.0 - 1.0 / 16.0)) << q;
    EXPECT_LE(got, exact * (1.0 + 1.0 / 16.0)) << q;
  }
  EXPECT_EQ(h.quantile(1.0), 10000u);  // clamped to the observed max
}

TEST(Histogram, JsonScalesByUnit) {
  Histogram h;
  h.record(2000);
  h.record(4000);
  const std::string json = h.json(1000.0);  // ns -> us
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\": 3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// A grouping/decimal-comma global locale must not leak into the JSON (CI
// artifact tooling parses it). The custom facet avoids depending on any
// locale being installed on the test machine.
TEST(Histogram, JsonIsLocaleIndependent) {
  struct CommaPunct : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  const std::locale previous =
      std::locale::global(std::locale(std::locale::classic(),
                                      new CommaPunct));
  Histogram h;
  for (int i = 0; i < 5000; ++i) h.record(1234567);
  const std::string json = h.json(1000.0);
  std::locale::global(previous);

  EXPECT_NE(json.find("\"count\": 5000"), std::string::npos) << json;
  EXPECT_EQ(json.find("5.000"), std::string::npos) << json;  // no grouping
  // mean = 1234.567 us: a decimal point, never a comma, and no grouping
  // inside the integer part.
  EXPECT_NE(json.find("\"mean\": 1234.57"), std::string::npos) << json;
  EXPECT_EQ(json.find("1234,"), std::string::npos) << json;
  EXPECT_EQ(json.find("1.234"), std::string::npos) << json;
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(6);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Xoshiro256 rng(7);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(101);
  pool.run_and_wait(101, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(5);
  pool.run_and_wait(5, [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
  for (const std::thread::id id : ran) EXPECT_EQ(id, caller);
  pool.run_and_wait(0, [](std::size_t) { FAIL() << "n = 0 must be a no-op"; });
}

TEST(ThreadPool, ConcurrentOwnersShareOnePool) {
  // Several owner threads issue batches into the same pool at once; every
  // batch must complete exactly its own indices. This is the serve-layer
  // shape: N service workers sharing one engine pool.
  ThreadPool pool(2);
  constexpr int kOwners = 4;
  constexpr std::size_t kTasks = 64;
  std::vector<std::thread> owners;
  std::vector<std::array<std::atomic<int>, kTasks>> hits(kOwners);
  for (int o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o] {
      for (int round = 0; round < 8; ++round) {
        pool.run_and_wait(kTasks, [&](std::size_t i) { ++hits[o][i]; });
      }
    });
  }
  for (std::thread& t : owners) t.join();
  for (int o = 0; o < kOwners; ++o) {
    for (std::size_t i = 0; i < kTasks; ++i) {
      EXPECT_EQ(hits[o][i].load(), 8) << "owner " << o << " task " << i;
    }
  }
}

TEST(ThreadPool, PropagatesTaskExceptionAndStaysUsable) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.run_and_wait(16,
                        [&](std::size_t i) {
                          ++ran;
                          if (i == 7) throw std::runtime_error("task 7");
                        }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 16) << "remaining tasks still run after a failure";
  // The pool survives a failed batch.
  std::atomic<int> after{0};
  pool.run_and_wait(8, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, CountsThreadsOnlyAtConstruction) {
  const std::uint64_t before = ThreadPool::threads_started();
  ThreadPool pool(2);
  EXPECT_EQ(ThreadPool::threads_started(), before + 2);
  for (int i = 0; i < 10; ++i) {
    pool.run_and_wait(4, [](std::size_t) {});
  }
  EXPECT_EQ(ThreadPool::threads_started(), before + 2)
      << "run_and_wait must never construct threads";
}

// --- PoissonClock -----------------------------------------------------------

TEST(PoissonClock, RejectsNonPositiveOrNonFiniteRates) {
  Xoshiro256 rng(11);
  EXPECT_THROW(PoissonClock(0.0, rng), std::invalid_argument);
  EXPECT_THROW(PoissonClock(-5.0, rng), std::invalid_argument);
  EXPECT_THROW(PoissonClock(std::numeric_limits<double>::infinity(), rng),
               std::invalid_argument);
  EXPECT_THROW(PoissonClock(std::numeric_limits<double>::quiet_NaN(), rng),
               std::invalid_argument);
}

TEST(PoissonClock, DeadlinesAdvanceMonotonically) {
  Xoshiro256 rng(12);
  PoissonClock clock(1e6, rng);
  auto prev = clock.start();
  for (int i = 0; i < 100; ++i) {
    const auto next = clock.next();
    EXPECT_GT(next, prev);  // strictly increasing, always finite
    prev = next;
  }
  // 100 arrivals at 1e6/s: the schedule stays in a sane neighborhood
  // (~100us) instead of collapsing to inf.
  EXPECT_LT(prev - clock.start(), std::chrono::seconds(1));
}

TEST(PoissonClock, TinyRatesSaturateInsteadOfOverflowing) {
  using Clock = std::chrono::steady_clock;
  Xoshiro256 rng(13);
  // Offsets of ~1e300 s (and, summed, inf) are far past the clock's
  // range; each arrival lands at time_point::max(), never wraps around.
  PoissonClock clock(1e-300, rng);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(clock.next(), Clock::time_point::max());
  }
  const Clock::time_point start = clock.start();
  EXPECT_EQ(saturating_after(start, 1e12), Clock::time_point::max());
  EXPECT_EQ(saturating_after(start, std::numeric_limits<double>::infinity()),
            Clock::time_point::max());
  EXPECT_EQ(saturating_after(start, 1.5),
            start + std::chrono::milliseconds(1500));
}

}  // namespace
}  // namespace mcsn
