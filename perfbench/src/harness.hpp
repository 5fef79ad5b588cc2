#pragma once
// Shared machinery of the layer-ladder benchmark: seeded inputs with their
// reference sort, exact percentiles over raw samples, process CPU/memory
// readings, in-memory span tracing and the workload interface.
//
// Every number the benchmark reports comes from timing public calls of the
// mcsn library from the outside; nothing here reaches into src/.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/util/metrics_registry.hpp"
#include "mcsn/util/rng.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t ns_of(Clock::time_point t) noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return ns_of(Clock::now());
}

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (q in (0, 1]) of raw samples. A failed request
/// is a +inf sample, so it counts as later than every completed one.
/// Returns 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// The exact percentile of each of `windows` consecutive, equal slices of
/// the sample sequence. Samples are in request order, so the slices are
/// windows of time.
[[nodiscard]] std::vector<double> window_percentiles(
    const std::vector<double>& samples, std::size_t windows, double q);

/// Process user + system CPU seconds (getrusage, all threads).
[[nodiscard]] double process_cpu_s();

/// Integer field of /proc/self/status ("VmHWM" in kB, "Threads"), or -1.
[[nodiscard]] long proc_status_field(const char* key);

// --- inputs ------------------------------------------------------------------

/// Seeded rounds of one shape (from mcsn::random_valid_round, so about
/// half of the words carry a metastable bit) and their reference sort.
/// The reference ranks each valid string and sorts the ranks: the MC sort
/// of valid strings is the sort in their total order (core/valid.hpp), so
/// the check is independent of every network and gate the library builds.
struct Corpus {
  mcsn::SortShape shape;
  std::size_t rounds = 0;
  std::vector<mcsn::Trit> in;        ///< rounds x shape.trits(), round-major
  std::vector<mcsn::Trit> expected;  ///< reference output, same layout

  [[nodiscard]] std::span<const mcsn::Trit> input(std::size_t first,
                                                  std::size_t n = 1) const {
    return std::span<const mcsn::Trit>(in).subspan(first * shape.trits(),
                                                   n * shape.trits());
  }
  [[nodiscard]] std::span<const mcsn::Trit> reference(std::size_t first,
                                                      std::size_t n = 1) const {
    return std::span<const mcsn::Trit>(expected).subspan(
        first * shape.trits(), n * shape.trits());
  }
};

[[nodiscard]] Corpus make_corpus(mcsn::SortShape shape, std::size_t rounds,
                                 mcsn::Xoshiro256& rng);

/// True when a response is OK and its payload equals the reference.
[[nodiscard]] bool payload_matches(const mcsn::SortResponse& rsp,
                                   std::span<const mcsn::Trit> expected);

// --- tracing -----------------------------------------------------------------

/// One timed call (or `count` back-to-back calls) into a library layer.
/// Spans of one request share `request`; `parent` is the id of the span
/// that caused this one (0 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t count = 1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Single-thread span buffer, kept in memory until the run ends. Spans past
/// the capacity are counted, not stored.
class Tracer {
 public:
  Tracer(std::uint64_t tag, std::size_t capacity);

  /// Stores one span and returns its id (`id` when non-zero, else a fresh
  /// one unique across tracers).
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t count = 1,
                       std::uint64_t request = 0, std::uint64_t parent = 0,
                       std::uint64_t id = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint64_t tag_;
  std::size_t capacity_;
  std::uint64_t next_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// The tracers of one traced run: one per benchmark thread role, so no
/// span buffer is shared between threads.
class TraceSet {
 public:
  enum Role : std::size_t { kMain = 0, kReceiver = 1, kProbe = 2, kRoles = 3 };

  TraceSet();
  [[nodiscard]] Tracer& at(Role role) { return tracers_[role]; }

  /// Per-span-name totals over every tracer.
  struct Totals {
    std::uint64_t spans = 0;
    double total_ns = 0;
  };
  [[nodiscard]] Totals totals(const std::string& name) const;
  [[nodiscard]] std::uint64_t span_count() const;

  /// Writes every span as CSV (one line each, sorted by start time).
  bool write_csv(const std::string& path) const;

 private:
  std::vector<Tracer> tracers_;
};

// --- workloads ---------------------------------------------------------------

/// Completed rounds and process CPU time, sampled at 1-s wall-clock
/// boundaries of a phase by the thread that sees completions. CPU time
/// counted in `excluded_cpu_ns` (when set) is left out.
class WindowMeter {
 public:
  struct Sample {
    std::int64_t t_ns = 0;
    std::uint64_t rounds = 0;
    double cpu_s = 0;
  };

  static constexpr std::int64_t kStepNs = 1'000'000'000;

  explicit WindowMeter(
      std::int64_t start_ns,
      const std::atomic<std::int64_t>* excluded_cpu_ns = nullptr);

  /// Call after each completion with the phase's running round count.
  void observe(std::int64_t now, std::uint64_t rounds) {
    if (now >= next_) sample(now, rounds);
  }
  /// Closes the last window at the end of the phase.
  void finish(std::int64_t now, std::uint64_t rounds) { sample(now, rounds); }

  [[nodiscard]] const std::vector<Sample>& samples() const noexcept {
    return samples_;
  }

 private:
  void sample(std::int64_t now, std::uint64_t rounds);

  const std::atomic<std::int64_t>* excluded_cpu_ns_;
  std::int64_t start_;
  std::int64_t next_;
  std::vector<Sample> samples_;
};

/// What one measured phase of a workload produced. An untraced run
/// appends several phases into one result.
struct PhaseResult {
  std::uint64_t attempted = 0;   ///< requests (calls or frames) attempted
  std::uint64_t failed = 0;      ///< failed or refused requests
  std::uint64_t mismatches = 0;  ///< completed with a wrong payload
  std::uint64_t rounds = 0;      ///< rounds completed
  double gate_evals = 0;         ///< sum of netlist gates over those rounds
  double wall_s = 0;
  double cpu_s = 0;
  /// Per 1-s window: rounds completed per second, CPU us per round.
  std::vector<double> window_rounds_per_s;
  std::vector<double> window_cpu_us;
  /// Client-side latency per request in us, in request order; failed
  /// requests are +inf. Open-loop workloads time from the due send time.
  std::vector<double> latency_us;
  /// Exact p50 and p99 of each latency window: consecutive slices of a
  /// phase's samples, up to 6 (30 in the 5 phases of an untraced run),
  /// each of at least 1000 samples so that a p99 has 10 samples beyond it.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  /// Open loop: how late each send left against its due time, in us.
  std::vector<double> lag_us;
  std::uint64_t sent = 0;       ///< requests handed to the transport
  std::uint64_t completed = 0;  ///< responses received
  bool open_loop = false;       ///< latency timed from the due send time
  long threads = 0;             ///< process threads while traffic ran
  std::vector<std::string> errors;  ///< mismatch and transport-error reports

  /// Fills the per-window figures at the end of a phase from its meter
  /// and its latency samples.
  void close_windows(const WindowMeter& meter);
  /// Adds a later phase of the same workload.
  void append(PhaseResult&& later);
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Constructs the sorter or service, warms the hot shape, starts the
  /// server and connects. Timed as setup_s.
  virtual void setup() = 0;
  /// Releases everything setup() acquired.
  virtual void teardown() = 0;
  /// Drives the workload's traffic for `seconds`, checking every response.
  /// Spans of calls into the library go to `trace` when non-null.
  [[nodiscard]] virtual PhaseResult measure(double seconds,
                                            TraceSet* trace) = 0;
  /// The serving registry of the current setup, or null without a service.
  [[nodiscard]] virtual const mcsn::MetricsRegistry* registry() const = 0;
  /// The workload's inputs of the hot 10x16 shape.
  [[nodiscard]] virtual const Corpus& hot() const = 0;
};

/// The paper's headline case: 10 channels of 16-bit measurements.
inline constexpr mcsn::SortShape kHotShape{10, 16};

/// Shapes beyond the catalog's 10 channels, built by odd-even composition
/// or the PPC route: 12-48 channels x 8/16 bits.
[[nodiscard]] std::vector<mcsn::SortShape> composed_shapes();

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed);

// --- per-layer metrics ------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Inputs of the per-layer report of one traced run.
struct LayerInputs {
  const Workload* workload = nullptr;
  const PhaseResult* traced = nullptr;
  const PhaseResult* untraced = nullptr;
  std::vector<mcsn::MetricsRegistry::Series> registry;  ///< empty: no service
};

/// Times each layer's public calls on the workload's inputs (spans into
/// `trace`), checks the 10x16 program against NodeWalkEvaluator, and
/// returns every per-layer metric. Mismatches are appended to `errors`.
[[nodiscard]] std::vector<Metric> layer_metrics(
    const LayerInputs& in, TraceSet& trace, std::vector<std::string>& errors);

/// Gate count of the paper's 10-channel depth-optimal sorter at 16 bits,
/// measured and as published (Table 8, "10-sortd").
struct PaperAnchor {
  std::size_t measured = 0;
  std::size_t published = 0;
};
[[nodiscard]] PaperAnchor paper_anchor();

/// Gates of the netlist McSorter elaborates for `shape` (library defaults).
[[nodiscard]] std::size_t netlist_gates(mcsn::SortShape shape);

}  // namespace perfbench
