// sortd — load-serving driver for the streaming sort service.
//
// Modes:
//
//   tool_sortd --rate 50000 --duration-s 2        synthetic Poisson load:
//     submits random valid measurement rounds at the given arrival rate for
//     the given duration, then prints the offered rate and throughput with
//     the service's registry JSON under "service" (serve_*_total counters,
//     serve_batch_lanes occupancy, serve_latency_ns percentiles).
//
//   tool_sortd --stdin                            text pipe mode:
//     each input line is one round of whitespace-separated integers; every
//     line is submitted asynchronously (the service coalesces them into
//     lane groups) and the sorted lines are printed in input order. Metrics
//     JSON goes to stderr.
//
//   tool_sortd --framed                           binary pipe mode:
//     stdin carries length-prefixed SortRequest frames (serve/wire.hpp);
//     each decoded request is submitted and its SortResponse frame is
//     written to stdout strictly in request order (heterogeneous shapes
//     welcome — every frame names its own). A malformed-but-framed request
//     gets an error-status response in its slot; a corrupt stream (bad
//     magic/version/length) aborts, since framing is unrecoverable.
//     Metrics JSON goes to stderr.
//
//   tool_sortd --encode-frames --bits B           codec helpers: turn text
//   tool_sortd --decode-frames                    rounds into request
//     frames and response frames back into text — the two ends of a
//     --framed pipeline, also used by CI to round-trip the binary path.
//
//   tool_sortd --listen PORT                      socket server mode:
//     serves the same wire frames (BATCH frames included) over a
//     non-blocking epoll socket front-end (serve/net/socket_server.hpp).
//     PORT 0 binds an ephemeral port; each bound endpoint is printed on
//     stdout so scripts can scrape it: "listening on HOST:PORT" for TCP
//     and "listening on unix:PATH" for --listen-unix PATH (which also
//     works without --listen, giving a UDS-only server). Serves until
//     SIGINT/SIGTERM, then drains and dumps the observability document to
//     stderr — the per-loop socket counters live in the same
//     MetricsRegistry as the service series, so one document covers both.
//     Socket knobs: --host H (default 127.0.0.1) --loops N (event-loop
//     threads) --max-conns N --conn-inflight N (in rounds: a batch frame
//     counts its round count) --idle-timeout-ms T. Unless --max-inflight
//     is given explicitly, the service backpressure bound is raised to
//     max-conns x conn-inflight so the event loops never block in
//     submit().
//
// Observability: every service mode (--stdin, --framed, --listen, load)
// emits the same registry-rendered stats document on stderr when it
// finishes — one schema across all modes. --metrics-format json (default)
// or prometheus selects the rendering. --stats-interval SECS additionally
// dumps the document every SECS seconds while serving, and SIGUSR1 forces
// a dump immediately (in any service mode, interval set or not).
//
// Arbitrary-shape serving: the sorter pool compiles any requested shape on
// first use (nets/compose/). --pool-capacity N bounds resident compiled
// shapes (LRU-evicting idle ones; 0 = unbounded), and --warmup CxB[,CxB...]
// pre-builds the listed shapes before traffic is accepted, logging each
// shape's build time to stderr — so the first request of a known-hot shape
// never pays the compile.
//
// Shared knobs: --channels C --bits B --workers W --window-us U
//               --max-lanes L --max-inflight N --seed S
//               --pool-capacity N --warmup CxB[,CxB...]
//               --metrics-format json|prometheus --stats-interval SECS
//
// Any flag outside the usage text, a value on a mode switch, a positional
// argument, or a numeric value that does not parse whole ("--listen 80x")
// prints the usage and exits 2. So does a duration past 24 h
// (--window-us, --idle-timeout-ms; kMaxServeDuration in serve/service.hpp).

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <deque>
#include <future>
#include <iostream>
#include <iterator>
#include <limits>
#include <locale>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/util/cli.hpp"
#include "mcsn/util/loadgen.hpp"
#include "mcsn/util/rng.hpp"

namespace {

using namespace mcsn;
using Clock = std::chrono::steady_clock;

/// Selected by --metrics-format; every stderr stats dump honours it, so
/// all modes emit one schema (registry-rendered, not hand-assembled).
wire::StatsFormat g_stats_format = wire::StatsFormat::json;

void dump_stats(const SortService& service) {
  if (g_stats_format == wire::StatsFormat::prometheus) {
    std::cerr << service.stats_prometheus();
  } else {
    std::cerr << service.stats_json() << "\n";
  }
  std::cerr << std::flush;
}

std::atomic<bool> g_dump_requested{false};

void on_dump_signal(int) { g_dump_requested.store(true); }

/// Background periodic/on-demand stats dumper: every service mode gets
/// SIGUSR1 = dump-now for free, and --stats-interval SECS adds a steady
/// cadence. Dumps go to stderr through dump_stats(), so they carry the
/// same schema as the end-of-run dump. RAII: joins in the destructor.
class StatsDumper {
 public:
  StatsDumper(const SortService& service, long interval_s)
      : service_(service), interval_s_(interval_s) {
    std::signal(SIGUSR1, on_dump_signal);
    thread_ = std::thread([this] { run(); });
  }
  ~StatsDumper() {
    stop_.store(true);
    thread_.join();
  }

 private:
  void run() {
    auto next = Clock::now() + std::chrono::seconds(interval_s_);
    while (!stop_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (g_dump_requested.exchange(false)) dump_stats(service_);
      if (interval_s_ > 0 && Clock::now() >= next) {
        dump_stats(service_);
        next = Clock::now() + std::chrono::seconds(interval_s_);
      }
    }
  }

  const SortService& service_;
  long interval_s_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Parses stdin as one integer round per line (blank lines skipped) and
/// hands each to `on_round` as a value SortRequest of `bits`-wide channels.
/// Returns 2 after naming the first line that is not an integer round or
/// that SortRequest::from_values rejects (e.g. a value wider than `bits`),
/// else 0.
template <class OnRound>
int read_value_rounds(std::size_t bits, OnRound on_round) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(std::cin, line)) {
    ++lineno;
    std::istringstream ss(line);
    std::vector<std::uint64_t> values;
    std::uint64_t v = 0;
    while (ss >> v) values.push_back(v);
    if (!ss.eof()) {
      std::cerr << "sortd: line " << lineno << ": not an integer round\n";
      return 2;
    }
    if (values.empty()) continue;
    StatusOr<SortRequest> request = SortRequest::from_values(
        SortShape{static_cast<int>(values.size()), bits}, values);
    if (!request.ok()) {
      std::cerr << "sortd: line " << lineno << ": "
                << request.status().to_string() << "\n";
      return 2;
    }
    on_round(std::move(*request));
  }
  return 0;
}

int run_stdin(SortService& service, std::size_t bits) {
  std::vector<std::future<SortResponse>> futures;
  if (const int rc = read_value_rounds(bits, [&](SortRequest request) {
        futures.push_back(service.submit(std::move(request)));
      });
      rc != 0) {
    return rc;
  }
  // EOF: flush every shard now instead of waiting out the flush window.
  service.stop();
  for (auto& f : futures) {
    const StatusOr<std::vector<std::uint64_t>> sorted = f.get().values();
    if (!sorted.ok()) {
      std::cerr << "sortd: " << sorted.status().to_string() << "\n";
      return 1;
    }
    for (std::size_t i = 0; i < sorted->size(); ++i) {
      std::cout << (i ? " " : "") << (*sorted)[i];
    }
    std::cout << "\n";
  }
  dump_stats(service);
  return 0;
}

int run_framed(SortService& service) {
  std::deque<std::future<SortResponse>> pending;
  // Responses leave in request order: only the front of the queue is ever
  // written, opportunistically while reading (so a long-lived pipe streams
  // results instead of buffering until EOF) and exhaustively at the end.
  const auto drain = [&pending](bool wait_all) {
    while (!pending.empty()) {
      if (!wait_all && pending.front().wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready) {
        break;
      }
      const SortResponse response = pending.front().get();
      pending.pop_front();
      wire::write_frame(std::cout, wire::encode_response(response));
    }
  };

  for (;;) {
    StatusOr<std::optional<wire::Frame>> frame = wire::read_frame(std::cin);
    if (!frame.ok()) {
      std::cerr << "sortd: framed stream: " << frame.status().to_string()
                << "\n";
      return 2;
    }
    if (!frame->has_value()) break;  // clean EOF between frames
    if ((*frame)->type != wire::FrameType::request) {
      std::cerr << "sortd: framed stream: expected a request frame\n";
      return 2;
    }
    StatusOr<SortRequest> request = wire::decode_request((*frame)->body);
    if (!request.ok()) {
      // The frame itself was well-delimited, so framing is intact: answer
      // this slot with the decode failure and keep serving.
      std::promise<SortResponse> failed;
      failed.set_value(
          SortResponse::failure(request.status(), SortShape{1, 1}));
      pending.push_back(failed.get_future());
    } else {
      pending.push_back(service.submit(std::move(*request)));
    }
    drain(false);
  }
  service.stop();  // flush the last partial groups at EOF
  drain(true);
  std::cout.flush();
  dump_stats(service);
  return 0;
}

int run_encode_frames(std::size_t bits) {
  if (const int rc = read_value_rounds(bits, [](const SortRequest& request) {
        wire::write_frame(std::cout, wire::encode_request(request));
      });
      rc != 0) {
    return rc;
  }
  std::cout.flush();
  return 0;
}

int run_decode_frames() {
  for (;;) {
    StatusOr<std::optional<wire::Frame>> frame = wire::read_frame(std::cin);
    if (!frame.ok()) {
      std::cerr << "sortd: framed stream: " << frame.status().to_string()
                << "\n";
      return 2;
    }
    if (!frame->has_value()) break;
    if ((*frame)->type != wire::FrameType::response) {
      std::cerr << "sortd: framed stream: expected a response frame\n";
      return 2;
    }
    StatusOr<SortResponse> response = wire::decode_response((*frame)->body);
    if (!response.ok()) {
      std::cerr << "sortd: framed stream: " << response.status().to_string()
                << "\n";
      return 2;
    }
    if (!response->status.ok()) {
      std::cerr << "sortd: request failed: " << response->status.to_string()
                << "\n";
      return 3;
    }
    const StatusOr<std::vector<std::uint64_t>> values = response->values();
    if (values.ok()) {
      for (std::size_t i = 0; i < values->size(); ++i) {
        std::cout << (i ? " " : "") << (*values)[i];
      }
    } else {
      // Metastable or >64-bit outputs have no integer form; print words.
      const std::vector<Word> words = response->words();
      for (std::size_t i = 0; i < words.size(); ++i) {
        std::cout << (i ? " " : "") << words[i].str();
      }
    }
    std::cout << "\n";
  }
  return 0;
}

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig); }

int run_listen(SortService& service, const net::SocketOptions& sopt) {
  net::SocketServer server(service, sopt);
  if (Status s = server.start(); !s.ok()) {
    std::cerr << "sortd: " << s.to_string() << "\n";
    return 2;
  }
  // Scrapable by scripts (and the CI smoke): one stdout line per bound
  // endpoint.
  if (sopt.listen_tcp) {
    std::cout << "listening on " << sopt.host << ":" << server.port() << "\n";
  }
  if (!sopt.unix_path.empty()) {
    std::cout << "listening on unix:" << sopt.unix_path << "\n";
  }
  std::cout << std::flush;

  // SIGINT/SIGTERM handlers were installed in main() *before* the service
  // was constructed — a SIGTERM that lands during a long --warmup build
  // latches into g_signal instead of killing the process mid-construction,
  // and this loop then exits immediately into the ordinary drain path.
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  // One registry-rendered document: the per-loop socket_*_total series
  // (labeled loop="i") sit next to the service series, replacing the old
  // hand-assembled {"socket": ..., "service": ...} blob.
  dump_stats(service);
  return 0;
}

int run_load(SortService& service, int channels, std::size_t bits,
             double rate, double duration_s, std::uint64_t seed) {
  // Oldest futures are drained once the window tops this size, bounding
  // driver memory on long soak runs (rate x duration can reach millions);
  // an old future is all but certainly fulfilled, so the get() is cheap.
  constexpr std::size_t kMaxPendingFutures = 16384;
  Xoshiro256 rng(seed);
  std::deque<std::future<SortResponse>> futures;
  std::size_t completed = 0;
  PoissonClock arrivals(rate, rng);
  const auto end = saturating_after(arrivals.start(), duration_s);
  while (true) {
    const auto scheduled = arrivals.next();
    if (scheduled >= end) break;
    if (scheduled > Clock::now()) std::this_thread::sleep_until(scheduled);
    futures.push_back(service.submit(
        *SortRequest::from_words(random_valid_round(rng, channels, bits))));
    while (futures.size() > kMaxPendingFutures) {
      (void)futures.front().get();
      futures.pop_front();
      ++completed;
    }
  }
  service.stop();  // flush the tail instead of waiting out its window
  for (auto& f : futures) {
    (void)f.get();
    ++completed;
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - arrivals.start()).count();
  std::cout << "{\"offered_rate\": " << rate
            << ", \"elapsed_s\": " << elapsed << ", \"throughput_vps\": "
            << static_cast<double>(completed) / elapsed
            << ",\n \"service\": " << service.registry().json() << "}\n";
  // The full stats document (registry plus slow-request ring) goes to
  // stderr like every other mode.
  dump_stats(service);
  return 0;
}

/// Parses "CxB[,CxB...]" (e.g. "24x8,12x4") into shapes. Returns false and
/// prints a diagnostic on malformed input; shape-range errors are left to
/// ServeOptions::validate(), which names them precisely.
bool parse_warmup_shapes(const std::string& arg,
                         std::vector<SortShape>& shapes) {
  const char* p = arg.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long channels = std::strtol(p, &end, 10);
    if (end == p || *end != 'x') {
      std::cerr << "sortd: --warmup wants CxB[,CxB...], got: " << arg << "\n";
      return false;
    }
    p = end + 1;
    const long bits = std::strtol(p, &end, 10);
    if (end == p || (*end != ',' && *end != '\0') || channels < 1 ||
        bits < 1) {
      std::cerr << "sortd: --warmup wants CxB[,CxB...], got: " << arg << "\n";
      return false;
    }
    shapes.push_back(SortShape{static_cast<int>(channels),
                               static_cast<std::size_t>(bits)});
    p = (*end == ',') ? end + 1 : end;
  }
  if (shapes.empty()) {
    std::cerr << "sortd: --warmup list is empty\n";
    return false;
  }
  return true;
}

/// Every flag the usage text names, by the value it takes.
enum class FlagKind { kSwitch, kInteger, kNumber, kText };

constexpr std::pair<std::string_view, FlagKind> kFlags[] = {
    {"channels", FlagKind::kInteger},
    {"bits", FlagKind::kInteger},
    {"workers", FlagKind::kInteger},
    {"window-us", FlagKind::kInteger},
    {"max-lanes", FlagKind::kInteger},
    {"max-inflight", FlagKind::kInteger},
    {"rate", FlagKind::kNumber},
    {"duration-s", FlagKind::kNumber},
    {"seed", FlagKind::kInteger},
    {"pool-capacity", FlagKind::kInteger},
    {"warmup", FlagKind::kText},
    {"stdin", FlagKind::kSwitch},
    {"framed", FlagKind::kSwitch},
    {"encode-frames", FlagKind::kSwitch},
    {"decode-frames", FlagKind::kSwitch},
    {"listen", FlagKind::kInteger},
    {"listen-unix", FlagKind::kText},
    {"host", FlagKind::kText},
    {"loops", FlagKind::kInteger},
    {"max-conns", FlagKind::kInteger},
    {"conn-inflight", FlagKind::kInteger},
    {"idle-timeout-ms", FlagKind::kInteger},
    {"metrics-format", FlagKind::kText},
    {"stats-interval", FlagKind::kInteger},
};

/// `text` as one T when all of it parses ("80x" and "" do not).
template <typename T>
std::optional<T> parse_whole(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Rejects what the CLI parser would otherwise let through silently: an
/// unknown (stale or typo'd) flag, a value on a switch, a positional
/// argument, or a numeric value that does not parse whole — get_long_or's
/// atol would read "--listen abc" as port 0.
bool flags_usable(const CliArgs& args) {
  if (!args.positional().empty()) {
    std::cerr << "sortd: unexpected argument '" << args.positional().front()
              << "'\n";
    return false;
  }
  for (const auto& [name, value] : args.flags()) {
    const auto known =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&name](const auto& f) { return f.first == name; });
    if (known == std::end(kFlags)) {
      std::cerr << "sortd: unknown flag --" << name << "\n";
      return false;
    }
    const FlagKind kind = known->second;
    if (kind == FlagKind::kSwitch && !value.empty()) {
      std::cerr << "sortd: --" << name << " takes no value (got '" << value
                << "')\n";
      return false;
    }
    if ((kind == FlagKind::kInteger && !parse_whole<long>(value)) ||
        (kind == FlagKind::kNumber && !parse_whole<double>(value))) {
      std::cerr << "sortd: --" << name << " needs a number (got '" << value
                << "')\n";
      return false;
    }
  }
  return true;
}

int usage() {
  std::cerr << "usage: tool_sortd [--channels C>=2] [--bits 1..16]"
               " [--workers W>=1] [--window-us 0..86400000000]"
               " [--max-lanes L>=1]"
               " [--max-inflight N>=1] [--rate R>0] [--duration-s S>0]"
               " [--seed S] [--pool-capacity N>=0] [--warmup CxB[,CxB...]]"
               " [--stdin | --framed | --encode-frames |"
               " --decode-frames | --listen PORT | --listen-unix PATH]\n"
               "       server knobs: [--host H] [--loops N>=1]"
               " [--max-conns N>=1] [--conn-inflight N>=1]"
               " [--idle-timeout-ms 0..86400000]\n"
               "       durations: at most 24 h (--window-us,"
               " --idle-timeout-ms)\n"
               "       observability: [--metrics-format json|prometheus]"
               " [--stats-interval SECS>=0]  (SIGUSR1 dumps now)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // JSON and sorted rounds must come out locale-independent even if a
  // linked component switches the global locale.
  std::cout.imbue(std::locale::classic());
  std::cerr.imbue(std::locale::classic());

  const CliArgs args(argc, argv);
  if (!flags_usable(args)) return usage();
  const long channels = args.get_long_or("channels", 10);
  const std::size_t bits =
      static_cast<std::size_t>(args.get_long_or("bits", 8));
  const long workers = args.get_long_or("workers", 1);
  // Counts that become ints are range-checked as longs first: a cast
  // would wrap 4294967300 to 4 and serve a shape nobody asked for.
  const auto fits_int = [](long v) {
    return v >= std::numeric_limits<int>::min() &&
           v <= std::numeric_limits<int>::max();
  };
  if (!fits_int(channels) || !fits_int(workers)) return usage();
  const long window_us = args.get_long_or("window-us", 200);
  const long max_lanes = args.get_long_or("max-lanes", 256);
  const long max_inflight = args.get_long_or("max-inflight", 4096);
  // flags_usable() admitted only values that parse whole.
  const double rate = *parse_whole<double>(args.get_or("rate", "20000"));
  const double duration_s =
      *parse_whole<double>(args.get_or("duration-s", "1"));
  // Workload-shape knobs keep their domain checks here; a non-finite or
  // non-positive rate feeds PoissonClock inf/NaN deadlines.
  if (channels < 2 || bits < 1 || bits > 16 || !std::isfinite(rate) ||
      rate <= 0.0 || !std::isfinite(duration_s) || duration_s <= 0.0) {
    return usage();
  }

  if (args.has("encode-frames")) return run_encode_frames(bits);
  if (args.has("decode-frames")) return run_decode_frames();

  const std::string metrics_format = args.get_or("metrics-format", "json");
  if (metrics_format == "prometheus") {
    g_stats_format = wire::StatsFormat::prometheus;
  } else if (metrics_format != "json") {
    std::cerr << "sortd: --metrics-format must be json or prometheus\n";
    return usage();
  }
  const long stats_interval_s = args.get_long_or("stats-interval", 0);
  if (stats_interval_s < 0) {
    std::cerr << "sortd: --stats-interval must be >= 0\n";
    return usage();
  }

  ServeOptions opt;
  opt.workers = static_cast<int>(workers);
  opt.flush_window = std::chrono::microseconds(window_us);
  // Negative values must reach validate() as out-of-range, not wrap
  // through the size_t casts into huge "valid" bounds.
  opt.max_lanes =
      max_lanes < 0 ? 0 : static_cast<std::size_t>(max_lanes);
  opt.max_inflight =
      max_inflight < 0 ? 0 : static_cast<std::size_t>(max_inflight);

  const long pool_capacity = args.get_long_or("pool-capacity", 0);
  if (pool_capacity < 0) {
    std::cerr << "sortd: --pool-capacity must be >= 0\n";
    return usage();
  }
  opt.pool_capacity = static_cast<std::size_t>(pool_capacity);
  if (args.has("warmup")) {
    if (!parse_warmup_shapes(args.get_or("warmup", ""), opt.warmup_shapes)) {
      return usage();
    }
    // Per-shape build-time log: the whole point of warming up is knowing
    // what the compile would have cost on the serving path.
    opt.warmup_observer = [](const SortShape& shape, const Status& status,
                             std::uint64_t build_ns) {
      std::cerr << "sortd: warmup " << shape.channels << "x" << shape.bits
                << ": ";
      if (status.ok()) {
        std::cerr << "built in "
                  << static_cast<double>(build_ns) / 1e6 << " ms\n";
      } else {
        std::cerr << status.to_string() << "\n";
      }
    };
  }

  net::SocketOptions sopt;
  const bool serve_sockets = args.has("listen") || args.has("listen-unix");
  if (serve_sockets) {
    const long max_conns = args.get_long_or("max-conns", 256);
    const long conn_inflight = args.get_long_or("conn-inflight", 64);
    const long idle_ms = args.get_long_or("idle-timeout-ms", 30000);
    const long loops = args.get_long_or("loops", 1);
    if (!fits_int(loops)) return usage();
    sopt.listen_tcp = args.has("listen");
    if (sopt.listen_tcp) {
      const long port = args.get_long_or("listen", -1);
      if (port < 0 || port > 65535) {
        std::cerr << "sortd: --listen needs a port in 0..65535\n";
        return usage();
      }
      sopt.port = static_cast<std::uint16_t>(port);
    }
    sopt.unix_path = args.get_or("listen-unix", "");
    sopt.host = args.get_or("host", "127.0.0.1");
    sopt.loops = static_cast<int>(loops);
    sopt.max_connections =
        max_conns < 0 ? 0 : static_cast<std::size_t>(max_conns);
    sopt.max_inflight =
        conn_inflight < 0 ? 0 : static_cast<std::size_t>(conn_inflight);
    sopt.idle_timeout = std::chrono::milliseconds(idle_ms < 0 ? -1 : idle_ms);
    if (Status s = sopt.validate(); !s.ok()) {
      std::cerr << "sortd: " << s.to_string() << "\n";
      return usage();
    }
    // Provision the service so the event loops never block in submit():
    // max_inflight is the only bound submit() waits on, and this covers
    // the worst case of every connection at its per-connection cap.
    if (!args.has("max-inflight")) {
      opt.max_inflight =
          std::max(opt.max_inflight, sopt.max_connections * sopt.max_inflight);
    }
  }

  // Reject (rather than clamp) bad service knobs: validate() names every
  // out-of-range value so a typo'd flag errors instead of being silently
  // rewritten by the constructor's sanitize step.
  if (Status s = opt.validate(); !s.ok()) {
    std::cerr << "sortd: " << s.to_string() << "\n";
    return usage();
  }
  // Latch shutdown signals before the service exists: --warmup builds
  // composed shapes inside the SortService constructor (milliseconds to
  // seconds for big shapes), and the default SIGTERM disposition would
  // kill the process mid-construction — pool threads racing teardown.
  // Latched early, a signal during warmup just makes run_listen's wait
  // loop fall through to the ordinary stop()/drain path. Socket modes
  // only: the pipe/load modes keep the default die-on-signal behavior
  // their drivers (and the CI smokes) expect.
  if (serve_sockets) {
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }
  SortService service(opt);
  // Joined after the mode returns but before the service is destroyed, so
  // periodic/SIGUSR1 dumps can read the registry for the mode's lifetime.
  const StatsDumper dumper(service, stats_interval_s);

  if (serve_sockets) return run_listen(service, sopt);
  if (args.has("framed")) return run_framed(service);
  if (args.has("stdin")) return run_stdin(service, bits);
  return run_load(service, static_cast<int>(channels), bits, rate, duration_s,
                  static_cast<std::uint64_t>(args.get_long_or("seed", 42)));
}
