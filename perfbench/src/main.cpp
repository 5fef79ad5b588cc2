// perfbench — the layer-ladder benchmark driver. Runs one named workload
// for a fixed time and prints its end-to-end metrics (--trace 0) or, from a
// separate traced run, its per-layer metrics (--trace 1):
//
//   perfbench --workload wire_open --seed 7 --seconds 10 --trace 0
//             [--commit ID] [--out-dir DIR]
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N,
//    "metrics": {name: {"value": v, "unit": u}}}
// Earlier lines are the environment record and a readable metric table;
// DIR (when set) receives the full result record and the traced run's spans.
// Exit status: 0 when every output matched its reference, 1 on a mismatch,
// a lost connection or a Table 8 gate-count mismatch, 2 on bad arguments.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

/// An untraced run measures kChunks equal phases. Before each one it sets
/// up for at least kSetupSeconds / kChunks and kSetupRepeats times, so
/// setup_s, the median of all those setups, samples the host's conditions
/// across the whole run like the measured metrics do. One first setup,
/// with cold caches, is dropped.
constexpr int kChunks = 5;
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 2.0;

std::string num(double v) {
  // JSON has no infinity: an infinitely late percentile prints as the
  // largest double.
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + num(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream info("/proc/cpuinfo");
  std::string line;
  while (std::getline(info, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string out_dir;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0 && a.seconds <= 600)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1" ? 1 : 0;
    } else if (key == "--commit") {
      a.commit = value;
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0 && a.trace >= 0;
}

/// The end-to-end metrics of an untraced run: medians over its 1-s windows
/// of the rates, and exact percentiles of its latency windows.
std::vector<Metric> end_to_end(const PhaseResult& p, double setup_s) {
  const double rounds_per_s = percentile(p.window_rounds_per_s, 0.5);
  const auto rounds = static_cast<double>(std::max<std::uint64_t>(p.rounds, 1));
  return {
      {"setup_s", setup_s, "s"},
      {"rounds_per_s", rounds_per_s, "rounds/s"},
      {"latency_p50_us", percentile(p.window_p50_us, 0.5), "us"},
      // Preemptions by a busy host set the tail of some windows; the best
      // window's tail is the one the code sets when they interfere least.
      // It cannot see a tail that grows in only some windows: the table
      // and the record keep the median window's and every window's p99.
      {"latency_p99_us",
       *std::min_element(p.window_p99_us.begin(), p.window_p99_us.end()),
       "us"},
      {"cpu_us_per_round", percentile(p.window_cpu_us, 0.5), "us"},
      {"peak_rss_mb",
       static_cast<double>(proc_status_field("VmHWM")) / 1024, "MiB"},
      // Gates per completed round times the round rate: engine speed in
      // the paper's gate count.
      {"gate_lane_evals_per_s", rounds_per_s * p.gate_evals / rounds, "1/s"},
  };
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

int run(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  std::vector<std::string> errors;
  const PaperAnchor anchor = paper_anchor();
  if (anchor.measured != anchor.published) {
    errors.push_back("10x16 netlist has " + std::to_string(anchor.measured) +
                     " gates; Table 8 (10-sortd, B=16) publishes " +
                     std::to_string(anchor.published));
  }

  const auto timed_setup = [&] {
    const std::int64_t t0 = now_ns();
    w->setup();
    return static_cast<double>(now_ns() - t0) * 1e-9;
  };
  std::vector<double> setups;
  PhaseResult result;
  PhaseResult untraced;
  std::vector<Metric> metrics;
  TraceSet trace;
  if (args.trace == 0) {
    (void)timed_setup();
    for (int chunk = 0; chunk < kChunks; ++chunk) {
      const std::int64_t burst_end =
          now_ns() + static_cast<std::int64_t>(kSetupSeconds / kChunks * 1e9);
      for (int i = 0; i < kSetupRepeats || now_ns() < burst_end; ++i) {
        w->teardown();
        setups.push_back(timed_setup());
      }
      result.append(w->measure(args.seconds / kChunks, nullptr));
    }
    w->teardown();
    metrics = end_to_end(result, percentile(setups, 0.5));
  } else {
    // Same process, same setup: half the time untraced, half traced, so
    // the difference is the tracing overhead.
    setups.push_back(timed_setup());
    untraced = w->measure(args.seconds / 2, nullptr);
    result = w->measure(args.seconds / 2, &trace);
    LayerInputs in;
    in.workload = w.get();
    in.traced = &result;
    in.untraced = &untraced;
    if (const mcsn::MetricsRegistry* reg = w->registry()) {
      in.registry = reg->snapshot();
    }
    w->teardown();
    metrics = layer_metrics(in, trace, errors);
    for (const std::string& e : untraced.errors) errors.push_back(e);
  }
  for (const std::string& e : result.errors) errors.push_back(e);

  const std::uint64_t attempted = result.attempted + untraced.attempted;
  const std::uint64_t failed = result.failed + untraced.failed;
  const bool correct = errors.empty();

  std::ostringstream env;
  env << "{\"workload\": " << quoted(args.workload)
      << ", \"seed\": " << args.seed
      << ", \"seconds\": " << num(args.seconds)
      << ", \"trace\": " << args.trace
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << quoted(cpu_model())
      << ", \"compiler\": " << quoted(PERFBENCH_COMPILER " (" __VERSION__ ")")
      << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << quoted(PERFBENCH_CXX_FLAGS)
      << ", \"commit\": " << quoted(args.commit) << "}";

  // Figures that are not gated metrics but belong to every result: the
  // failure share with its base, the sample counts behind the percentiles
  // (open loop: timed from each request's due send time), and the checks.
  std::vector<Metric> extra = {
      {"failed_ratio", ratio(failed, attempted), "ratio"},
      {"attempted", static_cast<double>(attempted), "count"},
      {"latency_samples", static_cast<double>(result.latency_us.size()),
       "count"},
      {"latency_windows", static_cast<double>(result.window_p99_us.size()),
       "count"},
      {"setups", static_cast<double>(setups.size()), "count"},
      {"latency_p99_median_window_us", percentile(result.window_p99_us, 0.5),
       "us"},
      {"latency_p99_whole_run_us", percentile(result.latency_us, 0.99), "us"},
      {"rounds_per_s_whole_run", ratio(result.rounds, result.wall_s),
       "rounds/s"},
      {"cpu_us_per_round_whole_run", 1e6 * ratio(result.cpu_s, result.rounds),
       "us"},
      {"loadgen_lag_p99_us", percentile(result.lag_us, 0.99), "us"},
      {"threads", static_cast<double>(result.threads), "count"},
      {"netlist_gates_10x16", static_cast<double>(anchor.measured), "count"},
      {"table8_gates_10sortd_16", static_cast<double>(anchor.published),
       "count"},
  };
  if (args.trace == 1) extra.push_back({"setup_s", setups.front(), "s"});

  std::cout << "env " << env.str() << "\n";
  std::cout << args.workload << " seed " << args.seed
            << (args.trace ? " (traced run: per-layer metrics)" : "")
            << "\n";
  for (const auto* list : {&metrics, &extra}) {
    for (const Metric& m : *list) {
      std::cout << "  " << m.name
                << std::string(m.name.size() < 32 ? 32 - m.name.size() : 1, ' ')
                << num(m.value) << " " << m.unit << "\n";
    }
  }
  if (result.open_loop) {
    std::cout << "  (open loop: latency is timed from each request's due "
                 "send time)\n";
  }
  for (const std::string& e : errors) std::cout << "  ERROR " << e << "\n";

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             std::to_string(args.trace);
    std::ofstream record(stem + ".json");
    record << "{\"env\": " << env.str()
           << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << metrics_json(metrics)
           << ", \"extra\": " << metrics_json(extra);
    const auto series = [&](const char* name, const std::vector<double>& v) {
      record << ", \"" << name << "\": [";
      for (std::size_t i = 0; i < v.size(); ++i) {
        record << (i ? ", " : "") << num(v[i]);
      }
      record << "]";
    };
    series("window_rounds_per_s", result.window_rounds_per_s);
    series("window_cpu_us_per_round", result.window_cpu_us);
    series("window_p50_us", result.window_p50_us);
    series("window_p99_us", result.window_p99_us);
    record << ", \"errors\": [";
    for (std::size_t i = 0; i < errors.size(); ++i) {
      record << (i ? ", " : "") << quoted(errors[i]);
    }
    record << "]}\n";
    if (args.trace == 1) {
      // One span file per workload; each traced run replaces it.
      if (!trace.write_csv(args.out_dir + "/" + args.workload + ".spans.csv")) {
        std::cerr << "perfbench: could not write the span file\n";
      }
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--commit ID] [--out-dir DIR]\n";
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
