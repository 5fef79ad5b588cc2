// The workloads of the layer ladder: the gate engine alone, and the socket
// path on top of it. Each one runs in one process with at most 4 threads
// (the server's event loop and service worker included) and one
// connection, on library defaults except for the settings named here.

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "mcsn/serve/net/client.hpp"
#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/loadgen.hpp"

namespace perfbench {
namespace {

using mcsn::SortRequest;
using mcsn::SortShape;
using mcsn::Trit;

constexpr SortShape kHot = kHotShape;
/// Rounds per workload corpus (64 lane groups of 256).
constexpr std::size_t kCorpusRounds = 16384;

/// Root span of one request; its child spans name it as their parent.
constexpr std::uint64_t request_span_id(std::uint64_t request) noexcept {
  return (std::uint64_t{0xF} << 48) | request;
}

/// CPU time of the calling thread.
std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// Confines the calling thread, and every thread it starts from then on,
/// to the first CPU it may run on.
void confine_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) == 0) return;
      break;
    }
  }
  throw std::runtime_error("cannot confine the process to one CPU");
}

double us_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-3;
}

std::vector<SortRequest> single_round_requests(const Corpus& c) {
  std::vector<SortRequest> out;
  for (std::size_t r = 0; r < c.rounds; ++r) {
    out.push_back(*SortRequest::view(c.shape, c.input(r)));
  }
  return out;
}

/// The seeded 10x16 inputs every workload sorts.
class HotInputs : public Workload {
 public:
  explicit HotInputs(std::uint64_t seed)
      : rng_(seed),
        hot_(make_corpus(kHot, kCorpusRounds, rng_)),
        hot_gates_(netlist_gates(kHot)) {}

  const Corpus& hot() const override { return hot_; }

 protected:
  mcsn::Xoshiro256 rng_;
  Corpus hot_;
  std::size_t hot_gates_;
};

// --- engine_flat ------------------------------------------------------------

/// McSorter::sort_batch_flat on one thread, closed loop, 1024 rounds per
/// call: the gate engine and its pack/unpack do all the work.
class EngineFlat final : public HotInputs {
 public:
  explicit EngineFlat(std::uint64_t seed) : HotInputs(seed) {}

  void setup() override {
    mcsn::McSorterOptions opt;
    opt.batch.threads = 1;
    sorter_.emplace(kHot.channels, kHot.bits, opt);
    std::vector<Trit> out(256 * kHot.trits());
    if (!sorter_->sort_batch_flat(hot_.input(0, 256), out).ok()) {
      throw std::runtime_error("engine_flat: warm-up sort failed");
    }
  }

  void teardown() override { sorter_.reset(); }

  PhaseResult measure(double seconds, TraceSet* trace) override {
    constexpr std::size_t kPerCall = 1024;
    Tracer* tr = trace ? &trace->at(TraceSet::kMain) : nullptr;
    const std::size_t slices = hot_.rounds / kPerCall;
    std::vector<Trit> out(kPerCall * kHot.trits());
    PhaseResult r;
    const double cpu0 = process_cpu_s();
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t last = start;
    WindowMeter meter(start);
    for (std::uint64_t call = 0; last < end; ++call) {
      const std::size_t first = (call % slices) * kPerCall;
      const std::int64_t t0 = now_ns();
      const mcsn::Status s =
          sorter_->sort_batch_flat(hot_.input(first, kPerCall), out);
      last = now_ns();
      if (tr) {
        tr->record("sorter.McSorter::sort_batch_flat", t0, last, kPerCall,
                   call + 1);
      }
      ++r.attempted;
      ++r.sent;
      if (!s.ok()) {
        ++r.failed;
        r.latency_us.push_back(kInf);
        continue;
      }
      ++r.completed;
      r.latency_us.push_back(us_between(t0, last));
      const auto ref = hot_.reference(first, kPerCall);
      if (!std::equal(out.begin(), out.end(), ref.begin()) &&
          ++r.mismatches == 1) {
        r.errors.push_back("engine_flat: output differs from the reference "
                           "at call " + std::to_string(call));
      }
      r.rounds += kPerCall;
      meter.observe(last, r.rounds);
    }
    meter.finish(last, r.rounds);
    r.close_windows(meter);
    r.threads = proc_status_field("Threads");
    r.wall_s = static_cast<double>(last - start) * 1e-9;
    r.cpu_s = process_cpu_s() - cpu0;
    r.gate_evals =
        static_cast<double>(r.rounds) * static_cast<double>(hot_gates_);
    return r;
  }

  const mcsn::MetricsRegistry* registry() const override { return nullptr; }

 private:
  std::optional<mcsn::McSorter> sorter_;
};

// --- wire_open ---------------------------------------------------------------

/// Open-loop Poisson one-round v1 frames on one loopback connection to a
/// SortService on library defaults (1 worker) behind a 1-loop SocketServer,
/// the hot shape warmed. This thread sends on schedule; a receiver thread
/// checks the responses in order.
///
/// The whole process runs on one CPU, and the sender waits for each due
/// time by yielding that CPU rather than sleeping, so the CPU never idles.
/// On a VM whose host is oversubscribed, waking an idle vCPU waited for the
/// host, often for milliseconds; with four threads on four vCPUs handing
/// each request on, those waits, not the code, set the latency.
class WireOpen final : public HotInputs {
 public:
  WireOpen(std::uint64_t seed, double rate)
      : HotInputs(seed), seed_(seed), rate_(rate) {
    confine_to_one_cpu();
  }

  ~WireOpen() override { WireOpen::teardown(); }

  void setup() override {
    mcsn::ServeOptions opt;
    opt.warmup_shapes = {kHot};
    service_ = std::make_unique<mcsn::SortService>(std::move(opt));
    server_ = std::make_unique<mcsn::net::SocketServer>(*service_);
    if (mcsn::Status s = server_->start(); !s.ok()) {
      throw std::runtime_error("server start: " + s.to_string());
    }
    auto client = mcsn::net::SortClient::connect("127.0.0.1", server_->port());
    if (!client.ok()) {
      throw std::runtime_error("connect: " + client.status().to_string());
    }
    client_.emplace(std::move(*client));
  }

  void teardown() override {
    client_.reset();
    if (server_) server_->stop();
    server_.reset();
    if (service_) service_->stop();
    service_.reset();
  }

  const mcsn::MetricsRegistry* registry() const override {
    return service_ ? &service_->registry() : nullptr;
  }

  PhaseResult measure(double seconds, TraceSet* trace) override;

 private:
  std::uint64_t seed_;
  double rate_;
  std::unique_ptr<mcsn::SortService> service_;
  std::unique_ptr<mcsn::net::SocketServer> server_;
  std::optional<mcsn::net::SortClient> client_;
};

PhaseResult WireOpen::measure(double seconds, TraceSet* trace) {
  Tracer* send_tr = trace ? &trace->at(TraceSet::kMain) : nullptr;
  Tracer* recv_tr = trace ? &trace->at(TraceSet::kReceiver) : nullptr;
  const std::vector<SortRequest> requests = single_round_requests(hot_);
  mcsn::net::SortClient& client = *client_;

  const std::size_t cap =
      static_cast<std::size_t>(rate_ * seconds * 1.25) + 1024;
  std::vector<std::int64_t> due(cap);
  std::vector<double> latency(cap, kInf);
  // Requests sent so far; the top bit marks the end of sending.
  constexpr std::uint64_t kDone = std::uint64_t{1} << 63;
  std::atomic<std::uint64_t> published{0};
  std::atomic<bool> abort{false};

  PhaseResult r;
  r.open_loop = true;
  struct ReceiverResult {
    std::uint64_t received = 0, failed = 0, mismatches = 0, rounds = 0;
    std::int64_t last_ns = 0;
    std::string error;
  } rx;

  const double cpu0 = process_cpu_s();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  rx.last_ns = start;
  // CPU the sender spends waiting for due times: the load generator's, not
  // the system's, so it is left out of the CPU figures.
  std::atomic<std::int64_t> wait_cpu_ns{0};
  WindowMeter meter(start, &wait_cpu_ns);

  std::thread receiver([&] {
    std::uint64_t j = 0;
    for (;;) {
      const std::uint64_t state = published.load(std::memory_order_acquire);
      if (j >= (state & ~kDone)) {
        if ((state & kDone) != 0) break;
        published.wait(state, std::memory_order_acquire);
        continue;
      }
      const std::int64_t t0 = now_ns();
      mcsn::StatusOr<mcsn::SortResponse> rsp = client.receive();
      const std::int64_t t1 = now_ns();
      if (!rsp.ok()) {
        rx.error = "receive: " + rsp.status().to_string();
        abort.store(true);
        break;
      }
      if (recv_tr) {
        recv_tr->record("net.SortClient::receive", t0, t1, 1, j + 1,
                        request_span_id(j + 1));
        recv_tr->record("client.request", due[j], t1, 1, j + 1, 0,
                        request_span_id(j + 1));
      }
      rx.last_ns = t1;
      if (!rsp->status.ok()) {
        ++rx.failed;
      } else {
        latency[j] = us_between(due[j], t1);
        if (!payload_matches(*rsp, hot_.reference(j % hot_.rounds))) {
          ++rx.mismatches;
        }
        ++rx.rounds;
        meter.observe(t1, rx.rounds);
      }
      ++j;
    }
    rx.received = j;
  });

  // Sender: this thread.
  mcsn::Xoshiro256 schedule_rng(seed_ ^ 0x5eedc10cULL);
  mcsn::PoissonClock clock(
      rate_, schedule_rng, Clock::time_point(std::chrono::nanoseconds(start)));
  std::uint64_t sent = 0;
  while (!abort.load(std::memory_order_relaxed) && sent < cap) {
    const std::int64_t due_ns = ns_of(clock.next());
    if (due_ns >= end) break;
    const std::int64_t wait_from = thread_cpu_ns();
    while (now_ns() < due_ns) sched_yield();
    wait_cpu_ns.fetch_add(thread_cpu_ns() - wait_from,
                          std::memory_order_relaxed);
    due[sent] = due_ns;
    const std::int64_t t0 = now_ns();
    const mcsn::Status s = client.send(requests[sent % requests.size()]);
    if (send_tr) {
      send_tr->record("net.SortClient::send", t0, now_ns(), 1, sent + 1,
                      request_span_id(sent + 1));
    }
    ++r.attempted;
    r.lag_us.push_back(us_between(due_ns, t0));
    if (!s.ok()) {
      ++r.failed;
      r.errors.push_back("wire_open: send: " + s.to_string());
      break;
    }
    ++sent;
    published.store(sent, std::memory_order_release);
    published.notify_one();
  }
  r.threads = proc_status_field("Threads");
  published.store(sent | kDone, std::memory_order_release);
  published.notify_one();
  receiver.join();

  r.sent = sent;
  r.completed = rx.received;
  // Requests never answered stay +inf in `latency`, like failures.
  r.failed += rx.failed + (sent - rx.received);
  r.mismatches = rx.mismatches;
  if (rx.mismatches > 0) {
    r.errors.push_back("wire_open: " + std::to_string(rx.mismatches) +
                       " responses differ from the reference");
  }
  if (!rx.error.empty()) r.errors.push_back("wire_open: " + rx.error);
  r.rounds = rx.rounds;
  r.gate_evals =
      static_cast<double>(rx.rounds) * static_cast<double>(hot_gates_);
  r.latency_us.assign(latency.begin(),
                      latency.begin() + static_cast<std::ptrdiff_t>(sent));
  r.wall_s = static_cast<double>(rx.last_ns - start) * 1e-9;
  meter.finish(rx.last_ns, rx.rounds);
  r.close_windows(meter);
  r.cpu_s = process_cpu_s() - cpu0 -
            static_cast<double>(wait_cpu_ns.load()) * 1e-9;
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "engine_flat") return std::make_unique<EngineFlat>(seed);
  // Every flush window the service evaluates a partial group at full
  // width, so from about 10k rounds/s on its one worker saturates whenever
  // a shared VM's host is busy. At this rate it keeps up, and latency
  // reflects per-request costs, not a growing backlog.
  if (name == "wire_open") return std::make_unique<WireOpen>(seed, 2000);
  return nullptr;
}

}  // namespace perfbench
