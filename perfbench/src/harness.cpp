#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "mcsn/core/valid.hpp"
#include "mcsn/refdata/paper_tables.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/loadgen.hpp"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<double> window_percentiles(const std::vector<double>& samples,
                                       std::size_t windows, double q) {
  const std::size_t n = samples.size();
  const std::size_t k =
      std::clamp<std::size_t>(windows, 1, std::max<std::size_t>(n, 1));
  std::vector<double> per_window;
  for (std::size_t i = 0; i < k; ++i) {
    const auto from = samples.begin() + static_cast<std::ptrdiff_t>(i * n / k);
    const auto to =
        samples.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / k);
    per_window.push_back(percentile(std::vector<double>(from, to), q));
  }
  return per_window;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

long proc_status_field(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtol(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return -1;
}

Corpus make_corpus(mcsn::SortShape shape, std::size_t rounds,
                   mcsn::Xoshiro256& rng) {
  Corpus c;
  c.shape = shape;
  c.rounds = rounds;
  c.in.reserve(rounds * shape.trits());
  c.expected.reserve(rounds * shape.trits());
  std::vector<std::pair<std::uint64_t, const mcsn::Word*>> ranked;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::vector<mcsn::Word> round =
        mcsn::random_valid_round(rng, shape.channels, shape.bits);
    ranked.clear();
    for (const mcsn::Word& w : round) {
      c.in.insert(c.in.end(), w.begin(), w.end());
      ranked.emplace_back(*mcsn::valid_rank(w), &w);
    }
    // The sorters emit the rounds in ascending order, minimum first.
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [rank, word] : ranked) {
      c.expected.insert(c.expected.end(), word->begin(), word->end());
    }
  }
  return c;
}

bool payload_matches(const mcsn::SortResponse& rsp,
                     std::span<const mcsn::Trit> expected) {
  return rsp.status.ok() && rsp.payload.size() == expected.size() &&
         std::equal(rsp.payload.begin(), rsp.payload.end(), expected.begin());
}

// --- windows ----------------------------------------------------------------

WindowMeter::WindowMeter(std::int64_t start_ns,
                         const std::atomic<std::int64_t>* excluded_cpu_ns)
    : excluded_cpu_ns_(excluded_cpu_ns),
      start_(start_ns),
      next_(start_ns + kStepNs) {
  sample(start_ns, 0);
}

void WindowMeter::sample(std::int64_t now, std::uint64_t rounds) {
  double cpu_s = process_cpu_s();
  if (excluded_cpu_ns_ != nullptr) {
    cpu_s -= static_cast<double>(excluded_cpu_ns_->load()) * 1e-9;
  }
  samples_.push_back({now, rounds, cpu_s});
  next_ = start_ + ((now - start_) / kStepNs + 1) * kStepNs;
}

void PhaseResult::close_windows(const WindowMeter& meter) {
  const std::vector<WindowMeter::Sample>& w = meter.samples();
  for (std::size_t i = 1; i < w.size(); ++i) {
    const auto n = static_cast<double>(w[i].rounds - w[i - 1].rounds);
    const auto secs = static_cast<double>(w[i].t_ns - w[i - 1].t_ns) * 1e-9;
    // A sliver of a window at the phase end says little; skip it unless
    // the phase is shorter than a window.
    if (i > 1 && secs < 0.25) continue;
    window_rounds_per_s.push_back(n / secs);
    if (n > 0) {
      window_cpu_us.push_back((w[i].cpu_s - w[i - 1].cpu_s) * 1e6 / n);
    }
  }
  const std::size_t windows =
      std::clamp<std::size_t>(latency_us.size() / 1000, 1, 6);
  window_p50_us = window_percentiles(latency_us, windows, 0.5);
  window_p99_us = window_percentiles(latency_us, windows, 0.99);
}

void PhaseResult::append(PhaseResult&& later) {
  const auto concat = [](std::vector<double>& to, std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  attempted += later.attempted;
  failed += later.failed;
  mismatches += later.mismatches;
  rounds += later.rounds;
  gate_evals += later.gate_evals;
  wall_s += later.wall_s;
  cpu_s += later.cpu_s;
  concat(window_rounds_per_s, later.window_rounds_per_s);
  concat(window_cpu_us, later.window_cpu_us);
  concat(latency_us, later.latency_us);
  concat(window_p50_us, later.window_p50_us);
  concat(window_p99_us, later.window_p99_us);
  concat(lag_us, later.lag_us);
  sent += later.sent;
  completed += later.completed;
  open_loop = open_loop || later.open_loop;
  threads = std::max(threads, later.threads);
  for (std::string& e : later.errors) errors.push_back(std::move(e));
}

// --- tracing -----------------------------------------------------------------

Tracer::Tracer(std::uint64_t tag, std::size_t capacity)
    : tag_(tag), capacity_(capacity) {
  spans_.reserve(std::min<std::size_t>(capacity, 1 << 16));
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t count,
                             std::uint64_t request, std::uint64_t parent,
                             std::uint64_t id) {
  if (id == 0) id = (tag_ << 48) | ++next_;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return id;
  }
  spans_.push_back(Span{name, id, parent, request, count, start_ns, end_ns});
  return id;
}

TraceSet::TraceSet() {
  // Room for far more than the densest traced phase: wire_open's 2k
  // requests/s for 30 s, two receiver spans per request.
  for (std::size_t role = 0; role < kRoles; ++role) {
    tracers_.emplace_back(role + 1, std::size_t{1} << 20);
  }
}

TraceSet::Totals TraceSet::totals(const std::string& name) const {
  Totals t;
  for (const Tracer& tracer : tracers_) {
    for (const Span& s : tracer.spans()) {
      if (name != s.name) continue;
      ++t.spans;
      t.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return t;
}

std::uint64_t TraceSet::span_count() const {
  std::uint64_t n = 0;
  for (const Tracer& t : tracers_) n += t.spans().size() + t.dropped();
  return n;
}

bool TraceSet::write_csv(const std::string& path) const {
  std::vector<const Span*> all;
  for (const Tracer& t : tracers_) {
    for (const Span& s : t.spans()) all.push_back(&s);
  }
  std::sort(all.begin(), all.end(), [](const Span* a, const Span* b) {
    return a->start_ns < b->start_ns;
  });
  std::ofstream out(path);
  out << "id,parent,request,name,count,start_ns,end_ns\n";
  for (const Span* s : all) {
    out << s->id << ',' << s->parent << ',' << s->request << ',' << s->name
        << ',' << s->count << ',' << s->start_ns << ',' << s->end_ns << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<mcsn::SortShape> composed_shapes() {
  std::vector<mcsn::SortShape> shapes;
  for (const int channels : {12, 16, 20, 24, 32, 48}) {
    for (const std::size_t bits : {8, 16}) shapes.push_back({channels, bits});
  }
  return shapes;
}

// --- paper anchor ------------------------------------------------------------

std::size_t netlist_gates(mcsn::SortShape shape) {
  return mcsn::McSorter(shape.channels, shape.bits).netlist().gate_count();
}

PaperAnchor paper_anchor() {
  PaperAnchor a;
  a.measured = netlist_gates(kHotShape);
  const auto row =
      mcsn::refdata::table8_row(mcsn::refdata::Circuit::here, "10-sortd", 16);
  a.published = row ? row->gates : 0;
  return a;
}

}  // namespace perfbench
