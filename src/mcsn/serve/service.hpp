#pragma once
// SortService — the streaming front door to the compiled batch engine.
//
// Many producer threads submit() individual measurement rounds; the service
// coalesces them into full 256-lane groups per (channels, bits) shape
// (MicroBatcher + SorterPool), executes groups on worker shards through the
// flat zero-copy engine path, and completes each submitter's future or
// callback. Small requests ride the wide engine at high occupancy instead
// of paying a full netlist evaluation each:
//
//   SortService svc({.workers = 2});
//   auto f = svc.submit(*SortRequest::from_values({4, 8}, values));
//   SortResponse rsp = f.get();              // rsp.status, rsp.payload
//
//   svc.submit(std::move(request), [](SortResponse rsp) { ... });
//
// The SortRequest path never throws: malformed requests, a stopped
// service, and deadline-expired work all come back as a SortResponse with
// the corresponding Status (the callback/future always completes exactly
// once). A request with a deadline that passed before its batch flushed is
// failed with kDeadlineExceeded instead of being sorted late.
//
// Latency/throughput trade-off is one knob: flush_window. A shard flushes
// the moment it fills max_lanes lanes (no added latency under load); a
// partial group flushes when its window ends, or, if every worker is busy
// then, as soon as one finishes its current group (workers sweep expired
// shards before taking the next ready group).
//
// Backpressure is one bound: at most max_inflight admitted-but-unfinished
// rounds; beyond that submit() blocks, and nothing else makes it wait.
// One mutex owns everything between admission and the workers: the
// batcher's shards, the FIFO of flushed groups, the inflight count and the
// accepting flag. Submitters wait on its "space" condition, workers on its
// "work" condition (a ready group, a shard deadline, or stop). Compiling a
// novel shape, sort_batch_flat and every completion run with it released.
// stop() (or the destructor) stops admission, drains every pending
// request, completes all futures/callbacks, and joins workers.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/metrics.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/util/proc_stats.hpp"

namespace mcsn {

/// Longest duration a serve-layer option accepts (ServeOptions::flush_window,
/// net::SocketOptions::idle_timeout and drain_timeout); validate() rejects
/// longer ones. A fixed bound, not a knob: at 24 h neither the conversion to
/// nanoseconds nor a steady_clock `now + duration` can overflow.
inline constexpr std::chrono::hours kMaxServeDuration{24};

struct ServeOptions {
  /// Worker threads draining the batcher and executing lane groups.
  int workers = 1;
  /// Lane-group target per batch; 256 fills one wide engine pass. Larger
  /// values span several lane groups per flush, smaller trade throughput
  /// for latency. Only a flush threshold: shards grow as they fill, so
  /// max_inflight, not this, bounds what they hold.
  std::size_t max_lanes = 256;
  /// Max time a request waits for lane-mates before a partial flush;
  /// 0 to kMaxServeDuration (24 h).
  std::chrono::microseconds flush_window{200};
  /// Backpressure bound: admitted-but-unfinished rounds before submit()
  /// blocks — the only thing submit() waits on.
  std::size_t max_inflight = 4096;
  /// Knobs for pooled sorters (channel bound, 2-sort elaboration). The
  /// engine runs serially inside a worker — workers is the service's
  /// parallelism — so validate() requires sorter.batch.threads == 1.
  McSorterOptions sorter;

  /// Bound on compiled shapes kept resident in the sorter pool (0 =
  /// unbounded). With arbitrary-shape serving the shape space is
  /// unbounded, so production deployments should set this: the pool
  /// LRU-evicts idle shapes beyond the bound (see serve/sorter_pool.hpp)
  /// and re-compiles on the next request for an evicted shape.
  std::size_t pool_capacity = 0;

  /// Shapes compiled before the service accepts traffic, so first
  /// requests for them never pay the build cost. Validated by validate();
  /// build failures are reported through warmup_observer and do not stop
  /// the service from starting.
  std::vector<SortShape> warmup_shapes;

  /// Optional per-shape warmup observer: (shape, build status, build
  /// nanoseconds). tool_sortd uses it to log per-shape build time.
  SorterPool::WarmupObserver warmup_observer;

  /// The metrics registry every serving layer (service, batcher, sorter
  /// pool, and a socket front-end built on this service) registers into.
  /// The constructor creates one when left null; set it to share a
  /// registry across services or to scrape it independently. Shared
  /// registries share same-named series (counters merge).
  std::shared_ptr<MetricsRegistry> registry;

  /// Checks every knob and reports *all* out-of-range values in one
  /// kInvalidArgument status. The SortService constructor throws with
  /// this message; CLI front-ends call it first to print it as a usage
  /// error.
  [[nodiscard]] Status validate() const;
};

class SortService {
 public:
  /// Throws std::invalid_argument with opt.validate()'s message when a
  /// knob is out of range; otherwise fills in the registry default and
  /// starts the worker threads. The service is ready for submit() when
  /// the constructor returns.
  ///
  /// Thread-safety: every public member is safe to call from any number
  /// of threads concurrently; submissions racing stop() complete with
  /// kUnavailable rather than being dropped.
  explicit SortService(ServeOptions opt = {});
  ~SortService();

  SortService(const SortService&) = delete;
  SortService& operator=(const SortService&) = delete;

  /// Submits one request; the future completes with a SortResponse whose
  /// Status reports validation failures (kInvalidArgument), shutdown
  /// (kUnavailable), expired deadlines (kDeadlineExceeded) or engine
  /// failures (kInternal). Never throws; blocks while the service is at
  /// max_inflight.
  [[nodiscard]] std::future<SortResponse> submit(SortRequest request);

  /// Callback-completion overload: `done` is invoked exactly once with the
  /// response — inline (from this thread) on synchronous rejection, from a
  /// worker thread otherwise. Skips the promise/shared-state allocation of
  /// the futures path; the completion must not block the worker for long.
  void submit(SortRequest request, SortCompletion done);

  /// Stops admission, flushes and executes everything pending (every
  /// future/callback completes), then joins the workers. Idempotent; the
  /// destructor calls it.
  void stop();

  /// The registry this service records into (options().registry; never
  /// null after construction) — the one source of its counters and
  /// histograms (serve_*_total, serve_latency_ns, serve_batch_lanes, ...;
  /// catalog in docs/OBSERVABILITY.md). Safe to read from any thread,
  /// concurrently with traffic and with stop(); handles stay valid for the
  /// service's lifetime. Read the completion-side counters before
  /// serve_submitted_total: a request is counted submitted before it can
  /// complete, so that order never shows completed ahead of submitted.
  [[nodiscard]] MetricsRegistry& registry() const noexcept {
    return *opt_.registry;
  }
  /// Top-K slowest requests with per-stage breakdowns; snapshot any time.
  [[nodiscard]] const SlowRequestRing& slow_requests() const noexcept {
    return slow_ring_;
  }
  /// Full observability document: {"metrics": <registry JSON>,
  /// "slow_requests": [...]} — what the wire stats frame and tool_sortd
  /// dumps serve. Locale-independent.
  [[nodiscard]] std::string stats_json() const;
  /// Registry in Prometheus text exposition (the slow-request ring is
  /// JSON-only; it has no natural Prometheus shape).
  [[nodiscard]] std::string stats_prometheus() const;
  /// The options this service runs with (registry and engine-pool
  /// defaults filled in); const and safe from any thread.
  [[nodiscard]] const ServeOptions& options() const noexcept { return opt_; }
  /// Distinct request shapes seen (compiled sorters in the pool); safe
  /// from any thread.
  [[nodiscard]] std::size_t shapes() const { return pool_.size(); }

 private:
  /// Validates, applies backpressure and enqueues. On a non-OK return the
  /// request and completion are untouched (the caller invokes `done` with
  /// the failure); on OK the batcher owns both.
  [[nodiscard]] Status try_admit(SortRequest& request, SortCompletion& done);

  void worker_loop();
  /// Runs one group and completes its requests (mutex released); returns
  /// the rounds it held, for the caller to release from inflight_.
  std::size_t execute(BatchGroup group);

  ServeOptions opt_;
  SorterPool pool_;
  ServiceMetrics metrics_;
  SlowRequestRing slow_ring_;
  /// process_rss_bytes / process_open_fds gauges, refreshed on every
  /// stats_json()/stats_prometheus() render so scrapes carry live values.
  ProcStatsGauges proc_stats_;

  // The admission mutex: guards everything below up to workers_.
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: ready group, deadline, stop
  std::condition_variable space_cv_;  // submitters: inflight_ fell
  MicroBatcher batcher_;
  std::deque<BatchGroup> ready_;  // flushed groups; workers take the front
  std::size_t inflight_ = 0;      // admitted-but-unfinished rounds
  // Written only under mu_; also read relaxed outside it as an early-out,
  // so a stopped service does not compile a novel shape's sorter.
  std::atomic<bool> accepting_{true};

  std::vector<std::thread> workers_;
};

}  // namespace mcsn
