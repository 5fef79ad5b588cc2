// The streaming sort service: sorter pooling, micro-batcher flush rules,
// admission backpressure, shutdown races and — the load-bearing property —
// that any interleaving of requests through the service yields results
// bit-identical to a direct sort_batch of the same rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <locale>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {

namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

std::vector<Word> random_round(Xoshiro256& rng, int channels,
                               std::size_t bits) {
  return random_valid_round(rng, channels, bits);
}

/// One of the service's counter series, read from its registry.
std::uint64_t counter(const SortService& service, const std::string& name,
                      MetricsRegistry::Labels labels = {}) {
  return service.registry().counter(name, std::move(labels)).value();
}

std::uint64_t flushes(const SortService& service, const char* cause) {
  return counter(service, "serve_flush_total", {{"cause", cause}});
}

// A well-formed round as a single-round request.
SortRequest request_of(const std::vector<Word>& round) {
  return std::move(SortRequest::from_words(round).value());
}

// Reference results: all `rounds` (one shape) sorted by one
// McSorter::sort_batch_flat call on a serial sorter — so it spawns no
// threads — split into one flat sorted round per input round.
std::vector<std::vector<Trit>> reference_sort(
    const std::vector<std::vector<Word>>& rounds) {
  McSorterOptions serial;
  serial.batch.threads = 1;
  const McSorter sorter(static_cast<int>(rounds.front().size()),
                        rounds.front().front().size(), serial);
  std::vector<Trit> flat;
  for (const std::vector<Word>& round : rounds) {
    for (const Word& w : round) flat.insert(flat.end(), w.begin(), w.end());
  }
  std::vector<Trit> out(flat.size());
  EXPECT_TRUE(sorter.sort_batch_flat(flat, out).ok());
  const std::size_t trits = sorter.shape().trits();
  std::vector<std::vector<Trit>> sorted;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    sorted.emplace_back(out.begin() + r * trits, out.begin() + (r + 1) * trits);
  }
  return sorted;
}

PendingSort make_pending(Xoshiro256& rng, int channels, std::size_t bits,
                         Clock::time_point enqueued) {
  PendingSort pending;
  pending.request =
      std::move(SortRequest::from_words(random_round(rng, channels, bits))
                    .value());
  pending.done = [](SortResponse) {};
  pending.enqueued = enqueued;
  return pending;
}

// --- SorterPool -------------------------------------------------------------

TEST(SorterPool, ReusesCompiledSorterPerShape) {
  SorterPool pool;
  const auto a = pool.acquire(4, 4);
  const auto b = pool.acquire(4, 4);
  const auto c = pool.acquire(6, 3);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a->get(), b->get());  // same compiled instance
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ((*a)->channels(), 4);
  EXPECT_EQ((*c)->bits(), 3u);
}

TEST(SorterPool, FailedBuildIsNotCachedAndReportsStatus) {
  SorterPool pool;
  const auto bad = pool.acquire(0, 4);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire(4, 4).ok());  // pool still usable
}

TEST(SorterPool, OversizedShapeComesBackUnimplemented) {
  McSorterOptions opt;
  opt.max_channels = 16;
  SorterPool pool(opt);
  const auto result = pool.acquire(17, 4);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.acquire(16, 4).ok());  // at the bound is fine
}

TEST(SorterPool, EvictsLeastRecentlyUsedIdleShapeAtCapacity) {
  MetricsRegistry registry;
  SorterPool pool(McSorterOptions{}, &registry, /*capacity=*/2);
  ASSERT_TRUE(pool.acquire(2, 2).ok());
  ASSERT_TRUE(pool.acquire(3, 2).ok());
  EXPECT_EQ(pool.size(), 2u);
  // Touch (2,2) so (3,2) is the coldest, then overflow the capacity.
  ASSERT_TRUE(pool.acquire(2, 2).ok());
  ASSERT_TRUE(pool.acquire(4, 2).ok());
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 1u);
  // (3,2) was evicted: acquiring it again is a miss (rebuild), while
  // (2,2) survived as a hit.
  const auto snapshot_misses = [&registry] {
    return registry.counter("pool_misses_total").value();
  };
  const std::uint64_t misses_before = snapshot_misses();
  ASSERT_TRUE(pool.acquire(2, 2).ok());
  EXPECT_EQ(snapshot_misses(), misses_before);
  ASSERT_TRUE(pool.acquire(3, 2).ok());
  EXPECT_EQ(snapshot_misses(), misses_before + 1);
  EXPECT_EQ(registry.counter("pool_evictions_total").value(),
            pool.evictions());
}

TEST(SorterPool, BusyShapesAreNotEvicted) {
  SorterPool pool(McSorterOptions{}, nullptr, /*capacity=*/1);
  const auto held = pool.acquire(2, 2);  // keep a reference: busy
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(pool.acquire(3, 2).ok());  // result dropped: idle
  // The busy (2,2) must survive; the pool rides over capacity instead.
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 0u);
  // Once only the cache holds (3,2), the next insertion evicts it.
  ASSERT_TRUE(pool.acquire(4, 2).ok());
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_EQ(pool.size(), 2u);  // held (2,2) + fresh (4,2)
}

TEST(SorterPool, ConcurrentEvictWhileBusyNeverFreesARunningProgram) {
  // Hammer a capacity-1 pool from several threads across more shapes than
  // fit: every acquire of a novel shape triggers an eviction sweep while
  // other threads are mid-sort_batch_flat on entries the sweep considers.
  // The busy-entry guard (use_count > 2) must keep every running program
  // alive — a wrong eviction is a use-after-free ASan/TSan catches — and
  // the soft bound must re-tighten once the churn stops.
  MetricsRegistry registry;
  SorterPool pool(McSorterOptions{}, &registry, /*capacity=*/1);
  constexpr int kThreads = 6;
  constexpr int kIters = 24;
  const SortShape shapes[] = {{2, 3}, {3, 3}, {4, 3}, {5, 3}, {6, 3}, {7, 3}};
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, &shapes, &failures, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(1000 + t));
      for (int i = 0; i < kIters; ++i) {
        const SortShape shape = shapes[rng.below(std::size(shapes))];
        const auto sorter = pool.acquire(shape.channels, shape.bits);
        if (!sorter.ok()) {
          failures.fetch_add(1);
          continue;
        }
        std::vector<Trit> in;
        in.reserve(shape.trits());
        for (const Word& w :
             random_valid_round(rng, shape.channels, shape.bits)) {
          in.insert(in.end(), w.begin(), w.end());
        }
        std::vector<Trit> out(in.size());
        if (!(*sorter)->sort_batch_flat(in, out).ok()) failures.fetch_add(1);
        pool.record_batch(shape.channels, shape.bits, 1, 1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  // All outside references are gone now; one fresh insert sweeps the
  // backlog of idle entries down to the bound.
  ASSERT_TRUE(pool.acquire(8, 3).ok());
  EXPECT_LE(pool.size(), 1u);
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_EQ(registry.counter("pool_evictions_total").value(),
            pool.evictions());
}

TEST(SorterPool, WarmupBuildsShapesAndReportsPerShapeTiming) {
  SorterPool pool;
  std::vector<SortShape> shapes = {{2, 2}, {3, 2}};
  std::vector<std::pair<SortShape, std::uint64_t>> observed;
  const Status status = pool.warmup(
      shapes, [&observed](const SortShape& s, const Status& st,
                          std::uint64_t ns) {
        EXPECT_TRUE(st.ok());
        observed.push_back({s, ns});
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(pool.size(), 2u);
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_GT(observed[0].second, 0u);
  // A failing shape reports its status but later shapes still build.
  std::vector<SortShape> mixed = {{0, 2}, {4, 2}};
  Status seen;
  const Status warm = pool.warmup(
      mixed, [&seen](const SortShape&, const Status& st, std::uint64_t) {
        if (!st.ok()) seen = st;
      });
  EXPECT_EQ(warm.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(seen.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(pool.size(), 3u);
}

// --- MicroBatcher -----------------------------------------------------------

TEST(MicroBatcher, FlushesOnLaneFull) {
  SorterPool pool;
  const auto sorter = *pool.acquire(2, 2);
  MicroBatcher batcher(4, 1ms);
  Xoshiro256 rng(1);
  const auto t0 = Clock::now();
  for (int i = 0; i < 3; ++i) {
    auto r = batcher.add(sorter, make_pending(rng, 2, 2, t0), t0);
    EXPECT_FALSE(r.full.has_value());
    EXPECT_EQ(r.window_started, i == 0);
  }
  auto r = batcher.add(sorter, make_pending(rng, 2, 2, t0), t0);
  ASSERT_TRUE(r.full.has_value());
  EXPECT_FALSE(r.window_started);
  EXPECT_EQ(r.full->requests.size(), 4u);
  // Payloads were staged contiguously, ready for one sort_batch_flat.
  EXPECT_EQ(r.full->flat.size(), 4u * (SortShape{2, 2}).trits());
  EXPECT_EQ(r.full->cause, FlushCause::lane_full);
  EXPECT_TRUE(batcher.empty());
}

TEST(MicroBatcher, FlushesOnWindowExpiry) {
  SorterPool pool;
  const auto sorter = *pool.acquire(2, 2);
  MicroBatcher batcher(256, 1ms);
  Xoshiro256 rng(2);
  const auto t0 = Clock::now();
  (void)batcher.add(sorter, make_pending(rng, 2, 2, t0), t0);
  (void)batcher.add(sorter, make_pending(rng, 2, 2, t0), t0 + 100us);

  ASSERT_TRUE(batcher.next_deadline().has_value());
  EXPECT_EQ(*batcher.next_deadline(), t0 + 1ms);  // pinned to the oldest

  EXPECT_TRUE(batcher.take_expired(t0 + 999us).empty());  // not yet
  auto groups = batcher.take_expired(t0 + 1ms);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].requests.size(), 2u);
  EXPECT_EQ(groups[0].cause, FlushCause::window);
  EXPECT_TRUE(batcher.empty());
  EXPECT_FALSE(batcher.next_deadline().has_value());
}

TEST(MicroBatcher, ShardsByShapeAndDrainsAll) {
  SorterPool pool;
  MicroBatcher batcher(256, 1ms);
  Xoshiro256 rng(3);
  const auto t0 = Clock::now();
  (void)batcher.add(*pool.acquire(2, 2), make_pending(rng, 2, 2, t0), t0);
  (void)batcher.add(*pool.acquire(4, 3), make_pending(rng, 4, 3, t0), t0);
  (void)batcher.add(*pool.acquire(2, 2), make_pending(rng, 2, 2, t0), t0);
  EXPECT_EQ(batcher.pending(), 3u);

  auto groups = batcher.take_all();
  ASSERT_EQ(groups.size(), 2u);  // one per shape
  for (const auto& g : groups) {
    EXPECT_EQ(g.cause, FlushCause::drain);
    EXPECT_EQ(g.flat.size(), g.requests.size() * g.sorter->shape().trits());
    for (const auto& pending : g.requests) {
      EXPECT_EQ(pending.request.shape.channels, g.sorter->channels());
    }
  }
  EXPECT_TRUE(batcher.empty());
}

// --- SortService ------------------------------------------------------------

// The tentpole property: an arbitrary interleaving of mixed-shape requests
// through the micro-batched service is bit-identical to direct sort_batch
// calls on the same rounds — including partial final lane groups.
TEST(SortService, BatchingEquivalentToDirectSortBatch) {
  struct Shape {
    int channels;
    std::size_t bits;
    std::size_t count;
  };
  // Counts straddle lane-group boundaries: > 256 (full group + partial),
  // small partial, and an exact sub-group size.
  const std::vector<Shape> shapes = {{4, 4, 300}, {6, 5, 57}, {7, 3, 128}};

  Xoshiro256 rng(7);
  std::vector<std::vector<std::vector<Word>>> rounds(shapes.size());
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (shape, index)
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    rounds[s].reserve(shapes[s].count);
    for (std::size_t i = 0; i < shapes[s].count; ++i) {
      rounds[s].push_back(
          random_round(rng, shapes[s].channels, shapes[s].bits));
      order.emplace_back(s, i);
    }
  }
  rng.shuffle(order);  // arbitrary interleaving of heterogeneous traffic

  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 500us;
  SortService service(opt);

  std::vector<std::vector<std::future<SortResponse>>> futures(shapes.size());
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    futures[s].resize(shapes[s].count);
  }
  for (const auto& [s, i] : order) {
    futures[s][i] = service.submit(request_of(rounds[s][i]));
  }

  for (std::size_t s = 0; s < shapes.size(); ++s) {
    const std::vector<std::vector<Trit>> expect = reference_sort(rounds[s]);
    for (std::size_t i = 0; i < shapes[s].count; ++i) {
      ASSERT_EQ(futures[s][i].get().payload, expect[i])
          << "shape " << shapes[s].channels << "x" << shapes[s].bits
          << " request " << i;
    }
  }

  // Completion side first, as in every counter read that follows.
  EXPECT_EQ(counter(service, "serve_completed_total"), order.size());
  EXPECT_EQ(counter(service, "serve_failed_total"), 0u);
  const std::uint64_t batches = counter(service, "serve_batches_total");
  EXPECT_GE(batches, 4u);  // at least ceil(300/256)+1+1 shape flushes
  EXPECT_EQ(flushes(service, "lane_full") + flushes(service, "window") +
                flushes(service, "drain"),
            batches);
  EXPECT_GT(service.registry().histogram("serve_batch_lanes").snapshot().mean(),
            0.0);
  EXPECT_EQ(counter(service, "serve_submitted_total"), order.size());
  EXPECT_EQ(service.shapes(), shapes.size());
}

TEST(SortService, ConcurrentProducersStaySorted) {
  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 200us;
  SortService service(opt);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  std::vector<std::thread> producers;
  std::vector<int> failures(kProducers, 0);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(p));
      for (int i = 0; i < kPerProducer; ++i) {
        std::vector<std::uint64_t> vals;
        for (int c = 0; c < 6; ++c) vals.push_back(rng.below(32));
        std::vector<std::uint64_t> expect = vals;
        std::sort(expect.begin(), expect.end());
        const StatusOr<std::vector<std::uint64_t>> got =
            service.submit(*SortRequest::from_values(SortShape{6, 5}, vals))
                .get()
                .values();
        if (!got.ok() || *got != expect) ++failures[p];
      }
    });
  }
  for (auto& t : producers) t.join();
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(failures[p], 0);
  EXPECT_EQ(counter(service, "serve_completed_total"),
            static_cast<std::uint64_t>(kProducers) * kPerProducer);
  EXPECT_GT(service.registry().histogram("serve_latency_ns").snapshot().count(),
            0u);
}

TEST(SortService, StopDrainsEveryPendingFuture) {
  ServeOptions opt;
  opt.workers = 1;
  opt.flush_window = std::chrono::microseconds(1h);  // window never expires
  SortService service(opt);

  Xoshiro256 rng(9);
  std::vector<std::future<SortResponse>> futures;
  std::vector<std::vector<Word>> sent;
  for (int i = 0; i < 40; ++i) {  // partial group: stays pending in batcher
    sent.push_back(random_round(rng, 4, 4));
    futures.push_back(service.submit(request_of(sent.back())));
  }
  service.stop();

  const std::vector<std::vector<Trit>> expect = reference_sort(sent);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().payload, expect[i]);  // fulfilled by the drain
  }
  EXPECT_EQ(counter(service, "serve_completed_total"), 40u);
  EXPECT_EQ(flushes(service, "drain"), 1u);

  EXPECT_EQ(service.submit(request_of(random_round(rng, 4, 4))).get().status
                .code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(counter(service, "serve_rejected_total"), 1u);
  service.stop();  // idempotent
}

// Submitters racing stop() at a tight inflight bound: every future
// completes exactly once — sorted if admitted, kUnavailable if refused —
// no admitted request is dropped, and no inflight slot leaks (a leak at
// max_inflight = 2 would wedge the submitters for good).
TEST(SortService, SubmittersRacingStopAllComplete) {
  ServeOptions opt;
  opt.workers = 1;
  opt.max_lanes = 1;     // every admitted request is a full group
  opt.max_inflight = 2;  // tight bound: leaked slots would hang the test
  SortService service(opt);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::vector<std::future<SortResponse>>> futures(kThreads);
  std::vector<std::thread> submitters;
  std::atomic<int> started{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Xoshiro256 rng(31 + static_cast<std::uint64_t>(t));
      started.fetch_add(1);
      for (int i = 0; i < kPerThread; ++i) {
        futures[static_cast<std::size_t>(t)].push_back(
            service.submit(request_of(random_round(rng, 4, 4))));
      }
    });
  }
  while (started.load() < kThreads) std::this_thread::yield();
  std::this_thread::sleep_for(2ms);  // let some requests through first
  service.stop();
  for (std::thread& t : submitters) t.join();

  std::uint64_t ok = 0;
  std::uint64_t unavailable = 0;
  for (auto& per_thread : futures) {
    for (std::future<SortResponse>& f : per_thread) {
      ASSERT_EQ(f.wait_for(5s), std::future_status::ready);
      const StatusCode code = f.get().status.code();
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kUnavailable)
          << static_cast<int>(code);
      ++(code == StatusCode::kOk ? ok : unavailable);
    }
  }
  // Rejected requests were never admitted, so "submitted" is exactly the
  // admitted ones, and each of those completed.
  EXPECT_EQ(counter(service, "serve_completed_total"), ok);
  EXPECT_EQ(counter(service, "serve_rejected_total"), unavailable);
  EXPECT_EQ(counter(service, "serve_submitted_total"),
            counter(service, "serve_completed_total"));
  EXPECT_EQ(ok + unavailable,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// max_inflight is the only bound submit() waits on: with the one worker
// held inside a completion, admitted full groups pile up in the service
// and every submit below max_inflight still returns at once.
TEST(SortService, SubmitBlocksOnlyOnMaxInflight) {
  ServeOptions opt;
  opt.workers = 1;
  opt.max_lanes = 1;  // every submit flushes a full group immediately
  opt.max_inflight = 1000;
  SortService service(opt);
  Xoshiro256 rng(41);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  service.submit(request_of(random_round(rng, 4, 4)),
                 [&entered, gate](SortResponse) {
                   entered.set_value();
                   gate.wait();
                 });
  ASSERT_EQ(entered.get_future().wait_for(5s), std::future_status::ready);

  constexpr int kRequests = 100;
  std::vector<SortRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    requests.push_back(request_of(random_round(rng, 4, 4)));
  }
  std::atomic<int> returned{0};
  std::atomic<int> completed{0};
  std::thread submitter([&] {
    for (SortRequest& request : requests) {
      service.submit(std::move(request),
                     [&completed](SortResponse) { completed.fetch_add(1); });
      returned.fetch_add(1);
    }
  });
  const auto until = Clock::now() + 5s;
  while (returned.load() < kRequests && Clock::now() < until) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(returned.load(), kRequests);
  EXPECT_EQ(completed.load(), 0);  // the worker is still held

  release.set_value();
  submitter.join();
  service.stop();
  EXPECT_EQ(completed.load(), kRequests);
  EXPECT_EQ(counter(service, "serve_completed_total"), kRequests + 1u);
}

// The engine pool knob: batch.threads > 1 creates ONE pool shared by every
// worker and shape (never workers x threads), and serving results stay
// bit-identical to direct sort_batch_flat.
TEST(SortService, SharedEnginePoolServesCorrectlyAcrossShapes) {
  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 200us;
  // max_lanes spans two 256-lane engine groups, so a full flush actually
  // shards across the pool — the exact nesting the old sanitize() hack
  // had to forbid.
  opt.max_lanes = 512;
  opt.sorter.batch.threads = 3;  // one shared 2-worker pool via sanitize()
  SortService service(opt);
  ASSERT_NE(service.options().sorter.batch.pool, nullptr);
  EXPECT_EQ(service.options().sorter.batch.pool->worker_count(), 2u);

  const std::uint64_t spawned = ThreadPool::threads_started();
  Xoshiro256 rng(17);
  struct Shape {
    int channels;
    std::size_t bits;
  };
  for (const Shape s : {Shape{4, 4}, Shape{6, 3}}) {
    std::vector<std::vector<Word>> rounds;
    std::vector<std::future<SortResponse>> futures;
    for (int i = 0; i < 600; ++i) {  // > 512: at least one sharded flush
      rounds.push_back(random_round(rng, s.channels, s.bits));
      futures.push_back(service.submit(request_of(rounds.back())));
    }
    // reference_sort is explicitly serial: default auto-threads would
    // lazily spawn a pool of its own on multi-core hosts and trip the
    // spawn assertion.
    const std::vector<std::vector<Trit>> expect = reference_sort(rounds);
    for (std::size_t i = 0; i < futures.size(); ++i) {
      ASSERT_EQ(futures[i].get().payload, expect[i])
          << s.channels << "x" << s.bits << " request " << i;
    }
  }
  // Every shape's sorter shared the one service pool, and serving spawned
  // nothing further (the references above are explicitly serial).
  EXPECT_EQ(ThreadPool::threads_started(), spawned);
  service.stop();
}

// The stats document must stay locale-independent (CI and the wire stats
// frame's consumers parse it).
TEST(SortService, StatsJsonIsLocaleIndependent) {
  struct CommaPunct : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  SortService service;
  MetricsRegistry& reg = service.registry();
  reg.counter("serve_submitted_total").add(1234567);
  reg.counter("serve_completed_total").add(1234567);
  for (int i = 0; i < 1000; ++i) reg.histogram("serve_latency_ns").record(2500);
  reg.histogram("serve_batch_lanes").record(1);
  reg.histogram("serve_batch_lanes").record(2);  // mean 1.5: a decimal point

  const std::locale previous =
      std::locale::global(std::locale(std::locale::classic(),
                                      new CommaPunct));
  const std::string json = service.stats_json();
  std::locale::global(previous);

  EXPECT_NE(json.find("\"serve_submitted_total\": 1234567"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("1.5"), std::string::npos) << json;
  EXPECT_EQ(json.find("1.234"), std::string::npos) << json;  // no grouping
  // Commas may only be JSON separators (always followed by a space here),
  // never decimal commas inside a number.
  for (std::size_t pos = json.find(','); pos != std::string::npos;
       pos = json.find(',', pos + 1)) {
    ASSERT_LT(pos + 1, json.size());
    EXPECT_EQ(json[pos + 1], ' ') << "decimal comma at " << pos << ": " << json;
  }
}

TEST(SortService, RejectsMalformedRounds) {
  // Empty rounds, zero-width words and ragged rounds never become requests.
  EXPECT_EQ(SortRequest::from_words({}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SortRequest::from_words({Word(0), Word(0)}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SortRequest::from_words({Word(4), Word(3)}).status().code(),
            StatusCode::kInvalidArgument);
  // A hand-built request of zero-width words is refused by the service.
  SortService service;
  SortRequest zero_width;
  zero_width.shape = SortShape{2, 0};
  EXPECT_EQ(service.submit(std::move(zero_width)).get().status.code(),
            StatusCode::kInvalidArgument);
}

TEST(SortService, StatsJsonHasTheAdvertisedSeries) {
  ServeOptions opt;
  opt.flush_window = 100us;
  SortService service(opt);
  (void)service
      .submit(*SortRequest::from_values(
          SortShape{4, 4}, std::vector<std::uint64_t>{3, 1, 2, 0}))
      .get();
  const std::string json = service.stats_json();
  for (const char* key :
       {"\"serve_submitted_total\"", "\"serve_completed_total\"",
        "\"serve_batches_total\"", "\"serve_flush_total{cause=\\\"window\\\"}\"",
        "\"serve_batch_lanes\"", "\"serve_latency_ns\"", "\"p50\"",
        "\"p99\"", "\"slow_requests\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// --- SortRequest/SortResponse API --------------------------------------------

// Differential parity: SortRequest submission (futures and callbacks,
// owned and zero-copy-view payloads) is checksum-identical to direct
// sort_batch_flat on the same rounds.
TEST(SortService, RequestApiMatchesDirectSortBatchFlat) {
  constexpr int kChannels = 4;
  constexpr std::size_t kBits = 4;
  constexpr std::size_t kRounds = 300;  // full lane group + partial
  Xoshiro256 rng(41);
  std::vector<std::vector<Word>> rounds;
  std::vector<std::vector<Trit>> flats(kRounds);
  for (std::size_t i = 0; i < kRounds; ++i) {
    rounds.push_back(random_round(rng, kChannels, kBits));
    for (const Word& w : rounds.back()) {
      flats[i].insert(flats[i].end(), w.begin(), w.end());
    }
  }
  const std::vector<std::vector<Trit>> expect = reference_sort(rounds);

  // Futures path over zero-copy views (flats outlive the completions),
  // interleaved with the callback path writing into preassigned slots.
  // Slots are declared before the service: if an assertion bails out of
  // the test early, ~SortService still drains pending callbacks, which
  // must find their targets alive.
  std::vector<std::future<SortResponse>> futures(kRounds);
  std::vector<SortResponse> callback_slots(kRounds);
  std::atomic<std::size_t> callbacks_done{0};

  ServeOptions opt;
  opt.workers = 2;
  opt.flush_window = 200us;
  SortService service(opt);
  for (std::size_t i = 0; i < kRounds; ++i) {
    SortRequest req = std::move(
        SortRequest::view(SortShape{kChannels, kBits}, flats[i]).value());
    if (i % 2 == 0) {
      futures[i] = service.submit(std::move(req));
    } else {
      service.submit(std::move(req), [&, i](SortResponse rsp) {
        callback_slots[i] = std::move(rsp);
        callbacks_done.fetch_add(1);
      });
    }
  }
  for (std::size_t i = 0; i < kRounds; i += 2) {
    const SortResponse rsp = futures[i].get();
    ASSERT_TRUE(rsp.status.ok()) << rsp.status.to_string();
    ASSERT_EQ(rsp.payload, expect[i]) << "request " << i;
    EXPECT_GT(rsp.latency.count(), 0);
  }
  service.stop();  // all callbacks have run once stop() returns
  EXPECT_EQ(callbacks_done.load(), kRounds / 2);
  for (std::size_t i = 1; i < kRounds; i += 2) {
    ASSERT_TRUE(callback_slots[i].status.ok());
    ASSERT_EQ(callback_slots[i].payload, expect[i]) << "callback " << i;
  }
  EXPECT_EQ(counter(service, "serve_completed_total"), kRounds);
  EXPECT_EQ(counter(service, "serve_failed_total"), 0u);
  EXPECT_EQ(counter(service, "serve_expired_total"), 0u);
  EXPECT_EQ(counter(service, "serve_submitted_total"), kRounds);
}

// The request path never throws: malformed requests and post-stop submits
// complete (inline) with the corresponding Status.
TEST(SortService, RequestApiFailsViaStatusNotExceptions) {
  SortService service;
  SortRequest malformed;  // empty payload, 0x0 shape
  const SortResponse bad = service.submit(std::move(malformed)).get();
  EXPECT_EQ(bad.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(counter(service, "serve_rejected_total"), 1u);

  service.stop();
  Xoshiro256 rng(5);
  bool called_inline = false;
  service.submit(
      std::move(SortRequest::from_words(random_round(rng, 4, 4)).value()),
      [&](SortResponse rsp) {
        called_inline = true;
        EXPECT_EQ(rsp.status.code(), StatusCode::kUnavailable);
      });
  EXPECT_TRUE(called_inline);  // completion ran before submit returned
  EXPECT_EQ(counter(service, "serve_rejected_total"), 2u);
}

// Deadline policy: judged at flush time. An expired request is failed with
// kDeadlineExceeded while its fresh lane-mates in the same group still
// sort correctly.
TEST(SortService, DeadlineExpiredRequestsFailAtFlushTime) {
  ServeOptions opt;
  opt.workers = 1;
  opt.flush_window = std::chrono::microseconds(1h);  // only drain flushes
  SortService service(opt);
  Xoshiro256 rng(19);

  const std::vector<Word> round_a = random_round(rng, 4, 4);
  const std::vector<Word> round_b = random_round(rng, 4, 4);
  SortRequest expired = std::move(SortRequest::from_words(round_a).value());
  expired.deadline = Clock::now() - 1ms;  // already past
  SortRequest fresh = std::move(SortRequest::from_words(round_b).value());
  fresh.deadline = Clock::now() + 1h;

  std::future<SortResponse> f_expired = service.submit(std::move(expired));
  std::future<SortResponse> f_fresh = service.submit(std::move(fresh));
  service.stop();  // drain-flushes the shared partial group

  const SortResponse r_expired = f_expired.get();
  EXPECT_EQ(r_expired.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(r_expired.payload.empty());

  const SortResponse r_fresh = f_fresh.get();
  ASSERT_TRUE(r_fresh.status.ok()) << r_fresh.status.to_string();
  EXPECT_EQ(r_fresh.payload, reference_sort({round_b})[0]);

  EXPECT_EQ(counter(service, "serve_completed_total"), 1u);
  EXPECT_EQ(counter(service, "serve_failed_total"), 0u);
  EXPECT_EQ(counter(service, "serve_expired_total"), 1u);
  EXPECT_EQ(counter(service, "serve_submitted_total"), 2u);
}

// Regression: integer-valued requests must reject bits > 64 loudly —
// uint64_t values cannot fill wider words — and a served 65-bit trit round
// has no integer form.
TEST(SortService, ValueRequestsRejectBitsOver64) {
  const std::vector<std::uint64_t> values{3, 1, 2, 0};
  EXPECT_EQ(SortRequest::from_values(SortShape{4, 65}, values).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SortRequest::from_values(SortShape{4, 0}, values).status().code(),
            StatusCode::kInvalidArgument);
  SortService service;
  const SortResponse wide_trits =
      service
          .submit(request_of({Word(65, Trit::one), Word(65, Trit::zero)}))
          .get();
  ASSERT_TRUE(wide_trits.status.ok()) << wide_trits.status.to_string();
  EXPECT_EQ(wide_trits.values().status().code(), StatusCode::kInvalidArgument);
  // bits = 64 stays legal at the validation layer (the values all fit).
  const StatusOr<SortRequest> wide =
      SortRequest::from_values(SortShape{2, 64}, std::vector<std::uint64_t>{
                                                     1, ~std::uint64_t{0}});
  EXPECT_TRUE(wide.ok()) << wide.status().to_string();
}

TEST(ServeOptions, ValidateNamesEveryBadKnob) {
  ServeOptions opt;
  EXPECT_TRUE(opt.validate().ok());

  opt.workers = 0;
  opt.max_lanes = 0;
  opt.flush_window = std::chrono::microseconds(-5);
  opt.max_inflight = 0;
  opt.sorter.batch.threads = -2;
  const Status s = opt.validate();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  for (const char* knob : {"workers", "max_lanes", "flush_window",
                           "max_inflight", "sorter.batch.threads"}) {
    EXPECT_NE(s.message().find(knob), std::string::npos)
        << knob << " missing in: " << s.message();
  }
  // The constructor rejects the same knobs instead of clamping them.
  EXPECT_THROW(SortService{opt}, std::invalid_argument);

  // A window past kMaxServeDuration would overflow the batcher's
  // nanosecond conversion (microseconds::max() reads back as -1000 ns).
  ServeOptions huge;
  huge.flush_window = std::chrono::microseconds::max();
  const Status h = huge.validate();
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(h.message().find("flush_window"), std::string::npos)
      << h.message();
  EXPECT_THROW(SortService{huge}, std::invalid_argument);
  huge.flush_window = kMaxServeDuration;
  EXPECT_TRUE(huge.validate().ok());
}

TEST(SortService, BackpressureBoundsInflight) {
  ServeOptions opt;
  opt.workers = 1;
  opt.max_inflight = 8;
  opt.flush_window = 100us;
  SortService service(opt);
  // Far more submissions than max_inflight: the bound forces submit() to
  // block and the service to keep up, rather than queueing unboundedly.
  Xoshiro256 rng(21);
  std::vector<std::future<SortResponse>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(service.submit(request_of(random_round(rng, 4, 4))));
  }
  for (auto& f : futures) (void)f.get();
  EXPECT_EQ(counter(service, "serve_completed_total"), 200u);
}

}  // namespace
}  // namespace mcsn
