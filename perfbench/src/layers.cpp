// Per-layer metrics of a traced run: each layer's public calls timed from
// the outside on the workload's own inputs, plus the serving registry's
// counters and stage histograms. Stage histograms are log-bucketed (their
// p50s sit on bucket edges), so they appear here only, never as end-to-end
// numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <thread>

#include "harness.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/service.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/sorter.hpp"

namespace perfbench {
namespace {

using mcsn::MetricsRegistry;
using mcsn::SortRequest;
using mcsn::SortResponse;
using mcsn::Trit;
using Registry = std::vector<MetricsRegistry::Series>;

/// Time spent on each repeated-call probe.
constexpr double kProbeSeconds = 0.15;
constexpr int kLanes = mcsn::PackedTrit256::kLanes;

double count(std::size_t n) { return static_cast<double>(n); }
double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs `call(i)` in blocks of `block` calls for about `seconds`, one span
/// per block, and returns the median ns per call over the blocks.
template <class F>
double ns_per_call(Tracer& tr, const char* name, std::size_t block,
                   double seconds, F&& call) {
  std::vector<double> per_call;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t i = 0;
  do {
    const std::int64_t t0 = now_ns();
    for (std::size_t b = 0; b < block; ++b) call(i++);
    const std::int64_t t1 = now_ns();
    tr.record(name, t0, t1, block);
    per_call.push_back(static_cast<double>(t1 - t0) / count(block));
  } while (now_ns() < end);
  return percentile(std::move(per_call), 0.5);
}

/// Times one call as a span; returns its duration in ms.
template <class F>
double timed_ms(Tracer& tr, const char* name, F&& call) {
  const std::int64_t t0 = now_ns();
  call();
  const std::int64_t t1 = now_ns();
  tr.record(name, t0, t1);
  return static_cast<double>(t1 - t0) * 1e-6;
}

/// Most slots live at once when the ops run in schedule order: inputs and
/// constants live from the start, a gate's value from its op to its last
/// reader, outputs to the end.
std::size_t max_live_slots(const mcsn::CompiledProgram& p) {
  const std::size_t n = p.ops().size();
  std::vector<std::size_t> born(p.slot_count(), 0);
  std::vector<std::size_t> dies(p.slot_count(), 0);
  std::vector<bool> used(p.slot_count(), false);
  for (const std::uint32_t s : p.input_slots()) {
    if (s != mcsn::CompiledProgram::kNoSlot) used[s] = true;
  }
  for (const auto& c : p.const_inits()) used[c.slot] = true;
  for (std::size_t i = 0; i < n; ++i) {
    const mcsn::CompiledOp& op = p.ops()[i];
    for (int a = 0; a < mcsn::cell_arity(op.kind); ++a) {
      dies[op.in[static_cast<std::size_t>(a)]] = i + 1;
    }
    born[op.out] = dies[op.out] = i + 1;
    used[op.out] = true;
  }
  for (const std::uint32_t s : p.output_slots()) dies[s] = n;
  std::vector<long> delta(n + 2, 0);
  for (std::size_t s = 0; s < p.slot_count(); ++s) {
    if (!used[s]) continue;
    ++delta[born[s]];
    --delta[dies[s] + 1];
  }
  long live = 0;
  long peak = 0;
  for (const long d : delta) peak = std::max(peak, live += d);
  return static_cast<std::size_t>(peak);
}

double counter_sum(const Registry& reg, const std::string& name) {
  std::uint64_t sum = 0;
  for (const auto& s : reg) {
    if (s.name == name && s.kind == MetricsRegistry::Kind::counter) {
      sum += s.counter_value;
    }
  }
  return static_cast<double>(sum);
}

/// p50 of an unlabeled registry histogram recorded in ns, in us (0 when the
/// workload has no such stage).
double histogram_p50_us(const Registry& reg, const std::string& name) {
  for (const auto& s : reg) {
    if (s.name == name && s.labels.empty() &&
        s.kind == MetricsRegistry::Kind::histogram &&
        s.histogram.count() > 0) {
      return static_cast<double>(s.histogram.quantile(0.5)) * 1e-3;
    }
  }
  return 0;
}

/// The hot shape, three times, and every composed/PPC shape: construction
/// is measured on all of them, whatever the workload serves.
std::vector<mcsn::SortShape> construction_shapes(mcsn::SortShape hot) {
  std::vector<mcsn::SortShape> shapes{hot, hot, hot};
  for (const mcsn::SortShape s : composed_shapes()) shapes.push_back(s);
  return shapes;
}

/// nets + netlist compile, as McSorter and the pool construct on library
/// defaults. Returns the hot shape's netlist.
mcsn::Netlist construction(Tracer& tr, mcsn::SortShape hot,
                           std::vector<Metric>& m) {
  const mcsn::McSorterOptions defaults;
  const mcsn::NetworkBuilder builder(mcsn::builder_options(defaults));
  const mcsn::Sort2Builder sort2 = mcsn::sort2_builder(defaults.sort2);
  std::vector<double> build_ms, elaborate_ms, compile_ms;
  std::optional<mcsn::Netlist> hot_netlist;
  for (const mcsn::SortShape s : construction_shapes(hot)) {
    std::optional<mcsn::BuiltNetwork> net;
    build_ms.push_back(timed_ms(tr, "nets.NetworkBuilder::build",
                                [&] { net = *builder.build(s.channels); }));
    std::optional<mcsn::Netlist> nl;
    elaborate_ms.push_back(timed_ms(tr, "nets.elaborate_network", [&] {
      nl = mcsn::elaborate_network(net->network, s.bits, sort2);
    }));
    compile_ms.push_back(timed_ms(tr, "netlist.CompiledProgram::compile", [&] {
      (void)mcsn::CompiledProgram::compile(*nl);
    }));
    if (s == hot) hot_netlist = std::move(nl);
  }
  m.push_back({"nets.build_ms", percentile(build_ms, 0.5), "ms"});
  m.push_back({"nets.elaborate_ms", percentile(elaborate_ms, 0.5), "ms"});
  m.push_back({"netlist.compile_ms", percentile(compile_ms, 0.5), "ms"});
  return std::move(*hot_netlist);
}

/// The compiled 10x16 program's shape, and its executor on pre-packed lanes
/// (the corpus' first 256 rounds). Returns ns per 256-lane group.
double program_and_executor(Tracer& tr, const Corpus& hot,
                            const mcsn::Netlist& netlist,
                            std::vector<Metric>& m,
                            std::vector<std::string>& errors) {
  const auto prog = mcsn::CompiledProgram::compile(netlist);
  const std::size_t slot_bytes =
      prog.slot_count() * sizeof(mcsn::PackedTrit256);
  m.push_back({"netlist.gates", count(netlist.gate_count()), "count"});
  m.push_back({"paper.table8_gates", count(paper_anchor().published),
               "count"});
  m.push_back({"netlist.levels", count(prog.level_count()), "count"});
  m.push_back({"netlist.slots", count(prog.slot_count()), "count"});
  m.push_back({"netlist.max_live_slots", count(max_live_slots(prog)),
               "count"});
  m.push_back({"netlist.slot_bytes", count(slot_bytes), "bytes"});

  mcsn::CompiledExecutor<mcsn::Packed256Backend> exec(prog);
  std::vector<mcsn::PackedTrit256> lanes(prog.input_count());
  for (int lane = 0; lane < kLanes; ++lane) {
    const auto round = hot.input(static_cast<std::size_t>(lane));
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].set_lane(lane, round[i]);
    }
  }
  const double eval_ns =
      ns_per_call(tr, "netlist.CompiledExecutor::run", 16, kProbeSeconds,
                  [&](std::size_t) { exec.run(lanes); });
  bool same = true;
  for (int lane = 0; lane < kLanes; ++lane) {
    const auto ref = hot.reference(static_cast<std::size_t>(lane));
    for (std::size_t o = 0; o < prog.output_count(); ++o) {
      same = same && exec.output_lane(o, lane) == ref[o];
    }
  }
  if (!same) {
    errors.push_back("netlist: executor output differs from the reference");
  }
  m.push_back({"netlist.eval_ns_per_group", eval_ns, "ns"});

  // The reference evaluator on rounds that carry metastable bits.
  mcsn::NodeWalkEvaluator walk(netlist);
  mcsn::Word out;
  for (std::size_t r = 0; r < 512; ++r) {
    walk.run_outputs(hot.input(r), out);
    const auto ref = hot.reference(r);
    if (!std::equal(out.begin(), out.end(), ref.begin(), ref.end())) {
      errors.push_back("netlist: NodeWalkEvaluator output differs from the "
                       "reference at round " + std::to_string(r));
      break;
    }
  }
  return eval_ns;
}

/// The flat path, 4096 rounds per call on one thread, against the executor.
void sorter(Tracer& tr, const Corpus& hot, double eval_ns,
            std::vector<Metric>& m, std::vector<std::string>& errors) {
  constexpr std::size_t kRounds = 4096;
  mcsn::McSorterOptions opt;
  opt.batch.threads = 1;
  const mcsn::McSorter sorter(hot.shape.channels, hot.shape.bits, opt);
  std::vector<Trit> out(kRounds * hot.shape.trits());
  const double per_call = ns_per_call(
      tr, "sorter.McSorter::sort_batch_flat", 1, 2 * kProbeSeconds,
      [&](std::size_t i) {
        const std::size_t first = (i * kRounds) % hot.rounds;
        (void)sorter.sort_batch_flat(hot.input(first, kRounds), out);
      });
  const auto ref = hot.reference(0, kRounds);
  (void)sorter.sort_batch_flat(hot.input(0, kRounds), out);
  if (!std::equal(out.begin(), out.end(), ref.begin())) {
    errors.push_back("sorter: sort_batch_flat output differs from the "
                     "reference");
  }
  const double flat = per_call / kRounds;
  const double transpose = flat - eval_ns / kLanes;
  m.push_back({"sorter.flat_ns_per_round", flat, "ns"});
  m.push_back({"sorter.transpose_ns_per_round", transpose, "ns"});
  m.push_back({"sorter.transpose_share", ratio(transpose, flat), "ratio"});
}

/// The codec on the workload's rounds: single frames, and 256-round batches.
void wire(Tracer& tr, const Corpus& hot, std::vector<Metric>& m,
          std::vector<std::string>& errors) {
  constexpr std::size_t kFrames = 256;
  constexpr std::size_t kBatch = 256;
  const mcsn::SortShape shape = hot.shape;
  const auto response = [&](std::size_t first, std::size_t rounds) {
    SortResponse rsp;
    rsp.shape = shape;
    rsp.rounds = rounds;
    const auto ref = hot.reference(first, rounds);
    rsp.payload.assign(ref.begin(), ref.end());
    return rsp;
  };
  std::vector<std::vector<std::uint8_t>> requests, batches;
  std::vector<SortResponse> responses;
  for (std::size_t r = 0; r < kFrames; ++r) {
    requests.push_back(
        mcsn::wire::encode_request(*SortRequest::view(shape, hot.input(r))));
    responses.push_back(response(r, 1));
  }
  for (std::size_t f = 0; f < 8; ++f) {
    batches.push_back(mcsn::wire::encode_batch_request(*SortRequest::view_batch(
        shape, kBatch, hot.input(f * kBatch, kBatch))));
  }
  const SortResponse batch_response = response(0, kBatch);
  const auto body = [](const std::vector<std::uint8_t>& frame) {
    return std::span<const std::uint8_t>(frame).subspan(
        mcsn::wire::kHeaderSize);
  };

  bool decoded = true;
  const double decode = ns_per_call(
      tr, "wire.decode_request", kFrames, kProbeSeconds, [&](std::size_t i) {
        decoded = decoded &&
                  mcsn::wire::decode_request(body(requests[i % kFrames])).ok();
      });
  const double encode = ns_per_call(
      tr, "wire.encode_response", kFrames, kProbeSeconds, [&](std::size_t i) {
        (void)mcsn::wire::encode_response(responses[i % kFrames]);
      });
  const double decode_batch = ns_per_call(
      tr, "wire.decode_batch_request", 1, kProbeSeconds, [&](std::size_t i) {
        const auto req = mcsn::wire::decode_batch_request(
            body(batches[i % batches.size()]));
        decoded = decoded && req.ok() && req->rounds == kBatch;
      });
  const double encode_batch = ns_per_call(
      tr, "wire.encode_batch_response", 1, kProbeSeconds, [&](std::size_t) {
        (void)mcsn::wire::encode_batch_response(batch_response);
      });
  if (!decoded) errors.push_back("wire: decoding an encoded request failed");
  m.push_back({"wire.decode_ns_per_frame", decode, "ns"});
  m.push_back({"wire.encode_ns_per_frame", encode, "ns"});
  m.push_back({"wire.decode_batch_ns_per_round", decode_batch / kBatch, "ns"});
  m.push_back({"wire.encode_batch_ns_per_round", encode_batch / kBatch, "ns"});
}

/// Staging single-round requests with a built sorter; a block of 256 adds
/// fills and hands back one lane group.
void batcher(Tracer& tr, const Corpus& hot, std::vector<Metric>& m) {
  const mcsn::SortShape shape = hot.shape;
  const auto sorter =
      std::make_shared<const mcsn::McSorter>(shape.channels, shape.bits);
  mcsn::MicroBatcher batcher(kLanes, std::chrono::seconds(3600));
  std::vector<double> per_add;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(kProbeSeconds * 1e9);
  std::size_t next = 0;
  do {
    std::vector<mcsn::PendingSort> pending;
    const auto now = Clock::now();
    for (int i = 0; i < kLanes; ++i, ++next) {
      pending.push_back(
          {*SortRequest::view(shape, hot.input(next % hot.rounds)),
           [](SortResponse) {}, now});
    }
    const std::int64_t t0 = now_ns();
    for (mcsn::PendingSort& p : pending) {
      (void)batcher.add(sorter, std::move(p), now);
    }
    const std::int64_t t1 = now_ns();
    tr.record("batcher.MicroBatcher::add", t0, t1, pending.size());
    per_add.push_back(static_cast<double>(t1 - t0) / kLanes);
  } while (now_ns() < end);
  m.push_back({"batcher.add_ns", percentile(per_add, 0.5), "ns"});
}

/// SortService::submit (callback form) timed by the caller, on a service
/// of its own with the hot shape warmed. Returns that service's registry.
Registry service_submit(Tracer& tr, const Corpus& hot, std::vector<Metric>& m,
                        std::vector<std::string>& errors) {
  constexpr std::size_t kRequests = 16384;
  constexpr std::size_t kBurst = 1024;
  mcsn::ServeOptions opt;
  opt.warmup_shapes = {hot.shape};
  mcsn::SortService service(opt);
  std::atomic<std::size_t> done{0};
  std::atomic<std::size_t> wrong{0};
  std::vector<double> submit_ns;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const std::size_t r = i % hot.rounds;
    SortRequest req = *SortRequest::view(hot.shape, hot.input(r));
    const std::int64_t t0 = now_ns();
    service.submit(std::move(req), [&, r](SortResponse rsp) {
      if (!payload_matches(rsp, hot.reference(r))) wrong.fetch_add(1);
      done.fetch_add(1, std::memory_order_release);
    });
    const std::int64_t t1 = now_ns();
    tr.record("service.SortService::submit", t0, t1, 1, i + 1);
    submit_ns.push_back(static_cast<double>(t1 - t0));
    if ((i + 1) % kBurst == 0) {
      while (done.load(std::memory_order_acquire) < i + 1) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
  if (wrong.load() > 0) {
    errors.push_back("service: responses differ from the reference");
  }
  m.push_back({"service.submit_ns_p99", percentile(submit_ns, 0.99), "ns"});
  return service.registry().snapshot();
}

/// SorterPool::acquire timed on a miss for every construction shape; the
/// median in ms.
double acquire_miss_ms(Tracer& tr, mcsn::SortShape hot,
                       std::vector<std::string>& errors) {
  std::vector<double> ms;
  for (const mcsn::SortShape s : construction_shapes(hot)) {
    mcsn::SorterPool pool;
    ms.push_back(timed_ms(tr, "pool.SorterPool::acquire", [&] {
      if (!pool.acquire(s.channels, s.bits).ok()) {
        errors.push_back("pool: acquire failed");
      }
    }));
  }
  return percentile(ms, 0.5);
}

}  // namespace

std::vector<Metric> layer_metrics(const LayerInputs& in, TraceSet& trace,
                                  std::vector<std::string>& errors) {
  Tracer& tr = trace.at(TraceSet::kProbe);
  const Corpus& hot = in.workload->hot();
  std::vector<Metric> m;

  const mcsn::Netlist netlist = construction(tr, hot.shape, m);
  const double eval_ns = program_and_executor(tr, hot, netlist, m, errors);
  sorter(tr, hot, eval_ns, m, errors);
  wire(tr, hot, m, errors);
  batcher(tr, hot, m);
  const Registry probe_registry = service_submit(tr, hot, m, errors);

  // Registry series come from the workload's own service; engine_flat has
  // none, so the submit probe's service stands in.
  const Registry& reg = in.registry.empty() ? probe_registry : in.registry;
  m.push_back({"service.queue_p50_us",
               histogram_p50_us(reg, "stage_queue_ns"), "us"});
  m.push_back({"service.execute_p50_us",
               histogram_p50_us(reg, "stage_execute_ns"), "us"});
  m.push_back({"batcher.rounds_per_batch",
               ratio(counter_sum(reg, "pool_rounds_total"),
                     counter_sum(reg, "pool_batches_total")),
               "rounds"});
  const double hits = counter_sum(reg, "pool_hits_total");
  const double misses = counter_sum(reg, "pool_misses_total");
  m.push_back({"pool.hits", hits, "count"});
  m.push_back({"pool.misses", misses, "count"});
  m.push_back({"pool.evictions", counter_sum(reg, "pool_evictions_total"),
               "count"});
  m.push_back({"pool.hit_ratio", ratio(hits, hits + misses), "ratio"});
  m.push_back({"pool.acquire_miss_ms", acquire_miss_ms(tr, hot.shape, errors),
               "ms"});

  // serve/net: client sends of the traced phase; server stages from the
  // workload's registry (0 without a socket server).
  const TraceSet::Totals send = trace.totals("net.SortClient::send");
  m.push_back({"net.send_ns_per_frame", ratio(send.total_ns, count(send.spans)),
               "ns"});
  for (const std::string stage : {"decode", "encode", "write"}) {
    m.push_back({"net." + stage + "_p50_us",
                 histogram_p50_us(in.registry, "stage_" + stage + "_ns"),
                 "us"});
  }

  // Load generator of the traced phase, and the cost of tracing itself.
  const PhaseResult& t = *in.traced;
  const PhaseResult& u = *in.untraced;
  m.push_back({"loadgen.lag_p99_us", percentile(t.lag_us, 0.99), "us"});
  m.push_back({"loadgen.sent", count(t.sent), "count"});
  m.push_back({"loadgen.completed", count(t.completed), "count"});
  const double cpu_t = ratio(t.cpu_s, count(t.rounds));
  const double cpu_u = ratio(u.cpu_s, count(u.rounds));
  m.push_back({"trace.cpu_overhead_pct", 100 * ratio(cpu_t - cpu_u, cpu_u),
               "%"});
  m.push_back({"trace.p50_overhead_us",
               percentile(t.latency_us, 0.5) - percentile(u.latency_us, 0.5),
               "us"});
  m.push_back({"trace.spans", count(trace.span_count()), "count"});
  return m;
}

}  // namespace perfbench
