#pragma once
// Persistent worker pool for lane-parallel evaluation.
//
// Every threaded path in the library used to spawn fresh std::threads per
// call (BatchEvaluator) or rely on ad-hoc per-owner thread sets; this
// pool replaces all of that with one fixed worker set that is started once
// and reused for the lifetime of its owner(s):
//
//   ThreadPool pool(3);                       // 3 workers + the caller
//   pool.run_and_wait(8, [&](std::size_t i) { shard(i); });
//
// run_and_wait(n, fn) invokes fn(0..n-1) exactly once each, spreading the
// indices across the workers *and* the calling thread (the caller is always
// an execution resource, so ThreadPool(0) degrades to a plain serial loop
// with zero thread overhead). It blocks until every index has finished and
// rethrows the first task exception.
//
// Concurrent run_and_wait callers are safe: batches from different callers
// are queued FIFO and each caller only blocks on its own batch. Its owner is
// a BatchEvaluator with threads > 1, which starts it once, at construction.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcsn {

class ThreadPool {
 public:
  /// Spawns exactly `workers` threads (0 is valid: run_and_wait then runs
  /// everything inline on the caller). For a target parallelism of T,
  /// construct with T - 1 workers — the caller is the T-th lane.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return workers_.size();
  }

  /// Invokes task(i) exactly once for every i in [0, n), on the workers and
  /// on the calling thread; returns when all n invocations have finished.
  /// The first exception thrown by any task is rethrown here (remaining
  /// tasks still run). Reentrant from multiple threads concurrently; do NOT
  /// call it from inside a task on the same pool (the worker would deadlock
  /// waiting on itself).
  void run_and_wait(std::size_t n,
                    const std::function<void(std::size_t)>& task);

  /// max(1, std::thread::hardware_concurrency) — the default parallelism
  /// target used wherever a knob is 0 ("auto").
  [[nodiscard]] static std::size_t hardware_parallelism() noexcept;

  /// Process-wide count of threads ever started by any ThreadPool. Tests
  /// use it to prove hot paths construct zero threads per call.
  [[nodiscard]] static std::uint64_t threads_started() noexcept;

 private:
  /// One run_and_wait call: a shared claim cursor plus completion count.
  /// The task function outlives the batch (the caller blocks in
  /// run_and_wait until done == total), so a raw pointer suffices.
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t next = 0;   // next unclaimed index, guarded by pool mutex
    std::size_t total = 0;
    std::size_t done = 0;   // finished invocations, guarded by pool mutex
    std::exception_ptr error;        // first failure
    std::condition_variable finished;  // signaled when done == total
  };

  void worker_loop();
  /// Runs index `i` of `batch` with the pool lock dropped, then books the
  /// completion. `lock` is held on entry and on return.
  void execute(const std::shared_ptr<Batch>& batch, std::size_t i,
               std::unique_lock<std::mutex>& lock);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Batch>> pending_;  // batches with unclaimed work
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mcsn
