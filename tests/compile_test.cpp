// Differential tests for the compiled, levelized batch engine: every backend
// width (64-lane, 256-lane, BatchEvaluator) must be bit-identical to
// the legacy node-walking evaluator on all catalog networks and widths,
// including partial final lane groups and thread-sharded batches.

#include "mcsn/netlist/compile.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "mcsn/core/gray.hpp"
#include "mcsn/core/valid.hpp"
#include "mcsn/netlist/eval.hpp"
#include "mcsn/nets/catalog.hpp"
#include "mcsn/nets/compose/compose.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/sorter.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {
namespace {

// Random ternary input vector (arbitrary trits, not just valid strings, to
// stress every gate path).
Word random_ternary(Xoshiro256& rng, std::size_t width) {
  Word w(width);
  for (std::size_t i = 0; i < width; ++i) {
    w[i] = trit_from_index(static_cast<int>(rng.below(3)));
  }
  return w;
}

// Input vectors laid back to back, as BatchEvaluator::run_flat takes them.
std::vector<Trit> flatten(const std::vector<Word>& vectors) {
  std::vector<Trit> flat;
  for (const Word& w : vectors) flat.insert(flat.end(), w.begin(), w.end());
  return flat;
}

// run_flat over `vectors`, returning the flat outputs.
std::vector<Trit> run_flat(const BatchEvaluator& batch,
                           const std::vector<Word>& vectors) {
  std::vector<Trit> out(vectors.size() * batch.output_width());
  batch.run_flat(flatten(vectors), out);
  return out;
}

std::vector<Netlist> catalog_netlists(std::size_t bits) {
  std::vector<Netlist> nls;
  for (const ComparatorNetwork& net :
       {optimal_4(), optimal_7(), optimal_9(), size_optimal_10(),
        depth_optimal_10(), batcher_odd_even(6)}) {
    nls.push_back(elaborate_network(net, bits, sort2_builder(),
                                    net.name() + "_B" + std::to_string(bits)));
  }
  return nls;
}

// The heart of the differential suite: legacy node-walk vs compiled 64-lane
// and 256-lane backends on the same corpus, every output lane.
TEST(Compile, AllBackendsMatchLegacyOnCatalogNetworks) {
  constexpr int kVectors = 300;  // > 256: exercises a partial wide group
  for (const std::size_t bits : {1u, 3u, 8u}) {
    for (const Netlist& nl : catalog_netlists(bits)) {
      const std::size_t width = nl.inputs().size();
      const std::size_t outs = nl.outputs().size();
      Xoshiro256 rng(bits * 1000 + nl.node_count());
      std::vector<Word> corpus;
      corpus.reserve(kVectors);
      for (int v = 0; v < kVectors; ++v) {
        corpus.push_back(random_ternary(rng, width));
      }

      // Legacy reference.
      NodeWalkEvaluator legacy(nl);
      std::vector<Word> want;
      want.reserve(kVectors);
      std::vector<Trit> in;
      Word out;
      for (const Word& w : corpus) {
        in.assign(w.begin(), w.end());
        legacy.run_outputs(in, out);
        want.push_back(out);
      }

      // Compiled 64-lane and 256-lane, with partial final groups.
      const CompiledProgram prog = CompiledProgram::compile(nl);
      auto check_packed = [&](auto backend_tag, const char* label) {
        using Backend = decltype(backend_tag);
        CompiledExecutor<Backend> exec(prog);
        std::vector<typename Backend::Value> pin(width);
        for (int base = 0; base < kVectors; base += Backend::kLanes) {
          const int active = std::min(Backend::kLanes, kVectors - base);
          for (std::size_t i = 0; i < width; ++i) {
            for (int lane = 0; lane < active; ++lane) {
              Backend::set_lane(pin[i], lane, corpus[base + lane][i]);
            }
          }
          exec.run(pin);
          for (int lane = 0; lane < active; ++lane) {
            for (std::size_t o = 0; o < outs; ++o) {
              ASSERT_EQ(exec.output_lane(o, lane), want[base + lane][o])
                  << nl.name() << " " << label << " v=" << base + lane
                  << " o=" << o;
            }
          }
        }
      };
      check_packed(Packed64Backend{}, "packed64");
      check_packed(Packed256Backend{}, "packed256");

      // BatchEvaluator (serial by default) over the whole corpus at once.
      const BatchEvaluator batch(nl);
      const std::vector<Trit> got = run_flat(batch, corpus);
      ASSERT_EQ(got.size(), kVectors * outs);
      for (int v = 0; v < kVectors; ++v) {
        for (std::size_t o = 0; o < outs; ++o) {
          ASSERT_EQ(got[v * outs + o], want[v][o])
              << nl.name() << " batch v=" << v << " o=" << o;
        }
      }
    }
  }
}

TEST(Compile, DeadNodeEliminationDropsUnobservableGates) {
  Netlist nl("dead_gates");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId live = nl.and2(a, b);
  // A whole dead cone, including a dead gate over the live one.
  const NodeId d1 = nl.xor2(a, b);
  const NodeId d2 = nl.or2(d1, live);
  nl.inv(d2);
  nl.mark_output(live, "o");

  const CompiledProgram dense = CompiledProgram::compile(nl);
  EXPECT_EQ(dense.live_gate_count(), 1u);
  EXPECT_EQ(nl.gate_count(), 4u);

  // Outputs agree with legacy on the full ternary input space.
  CompiledExecutor<Packed64Backend> exec(dense);
  for (const Trit ta : kAllTrits) {
    for (const Trit tb : kAllTrits) {
      const Trit want = evaluate(nl, Word{ta, tb})[0];
      const PackedTrit in[2] = {PackedTrit::splat(ta), PackedTrit::splat(tb)};
      exec.run(std::span<const PackedTrit>(in, 2));
      EXPECT_EQ(exec.output_lane(0, 0), want);
    }
  }
}

TEST(Compile, DeadInputsGetNoSlotButStayAddressable) {
  Netlist nl("dead_input");
  const NodeId a = nl.add_input("a");
  nl.add_input("unused");
  const NodeId c = nl.constant(true);
  nl.mark_output(nl.and2(a, c), "o");

  const CompiledProgram prog = CompiledProgram::compile(nl);
  ASSERT_EQ(prog.input_count(), 2u);
  EXPECT_NE(prog.input_slots()[0], CompiledProgram::kNoSlot);
  EXPECT_EQ(prog.input_slots()[1], CompiledProgram::kNoSlot);
  ASSERT_EQ(prog.const_inits().size(), 1u);
  EXPECT_EQ(prog.const_inits()[0].value, Trit::one);

  // The executor still takes both inputs and ignores the dead one.
  CompiledExecutor<Packed64Backend> exec(prog);
  const PackedTrit in[2] = {PackedTrit::splat(Trit::meta),
                            PackedTrit::splat(Trit::one)};
  exec.run(std::span<const PackedTrit>(in, 2));
  EXPECT_EQ(exec.output_lane(0, 0), Trit::meta);
}

TEST(Compile, LevelizedScheduleIsTopologicalAndSliced) {
  const Netlist nl =
      elaborate_network(optimal_7(), 4, sort2_builder(), "sched_check");
  const CompiledProgram prog = CompiledProgram::compile(nl);

  ASSERT_GT(prog.level_count(), 0u);
  std::vector<char> written(prog.slot_count(), 0);
  std::vector<char> is_const(prog.slot_count(), 0);
  for (const std::uint32_t s : prog.input_slots()) {
    if (s != CompiledProgram::kNoSlot) written[s] = 1;
  }
  for (const CompiledProgram::ConstInit& c : prog.const_inits()) {
    written[c.slot] = 1;
    is_const[c.slot] = 1;
  }
  std::size_t seen = 0;
  for (std::size_t l = 0; l < prog.level_count(); ++l) {
    const std::span<const CompiledOp> level = prog.level_ops(l);
    // Ops inside one level must be independent: no op reads a slot written
    // by this level, so check reads against the pre-level state first.
    std::vector<char> read_here(prog.slot_count(), 0);
    for (const CompiledOp& op : level) {
      const int arity = cell_arity(op.kind);
      for (int j = 0; j < arity; ++j) {
        const std::uint32_t s = op.in[static_cast<std::size_t>(j)];
        EXPECT_TRUE(written[s]) << "level " << l << " reads a slot not yet "
                                << "written";
        read_here[s] = 1;
      }
    }
    // Slots are reused, but only in a level after their value's last
    // read, never twice within one level, and never over a constant.
    std::vector<char> written_here(prog.slot_count(), 0);
    for (const CompiledOp& op : level) {
      EXPECT_FALSE(read_here[op.out]) << "level " << l << " rewrites a slot "
                                      << "it reads";
      EXPECT_FALSE(written_here[op.out]) << "level " << l << " writes a slot "
                                         << "twice";
      EXPECT_FALSE(is_const[op.out]) << "level " << l << " overwrites a "
                                     << "constant";
      written_here[op.out] = 1;
      written[op.out] = 1;
    }
    seen += level.size();
  }
  EXPECT_EQ(seen, prog.ops().size()) << "level slices must partition the ops";
}

// sort_batch_flat must agree with the node walk of the sorter's netlist
// for every batch size around the 64- and 256-lane group boundaries
// (partial final groups included).
TEST(Compile, SortBatchFlatMatchesNodeWalkAcrossLaneBoundaries) {
  const std::size_t bits = 5;
  const int channels = 7;
  const McSorter sorter(channels, bits);
  const std::size_t trits = sorter.shape().trits();
  NodeWalkEvaluator walk(sorter.netlist());
  Xoshiro256 rng(99);

  for (const std::size_t rounds : {1u, 63u, 64u, 65u, 256u, 300u}) {
    std::vector<Trit> in;
    for (std::size_t i = 0; i < rounds * channels; ++i) {
      const Word w = valid_from_rank(rng.below(valid_count(bits)), bits);
      in.insert(in.end(), w.begin(), w.end());
    }
    std::vector<Trit> got(in.size());
    ASSERT_TRUE(sorter.sort_batch_flat(in, got).ok());
    Word want;
    for (std::size_t r = 0; r < rounds; ++r) {
      walk.run_outputs(std::span<const Trit>(in).subspan(r * trits, trits),
                       want);
      for (std::size_t k = 0; k < trits; ++k) {
        ASSERT_EQ(got[r * trits + k], want[k])
            << rounds << " rounds, r=" << r << " k=" << k;
      }
    }
  }
}

TEST(Compile, ThreadShardedBatchMatchesSerial) {
  const Netlist nl =
      elaborate_network(optimal_9(), 4, sort2_builder(), "shard_check");
  Xoshiro256 rng(1234);
  std::vector<Word> corpus;
  for (int v = 0; v < 600; ++v) {
    corpus.push_back(random_ternary(rng, nl.inputs().size()));
  }
  BatchOptions sharded_opt;
  sharded_opt.threads = 3;
  const BatchEvaluator serial(nl);
  const BatchEvaluator sharded(nl, sharded_opt);
  EXPECT_EQ(run_flat(serial, corpus), run_flat(sharded, corpus));
}

// run_flat() never constructs a thread: the evaluator starts its pool
// (threads - 1 workers) once, at construction, and repeated runs reuse it,
// observed through the process-wide spawn counter.
TEST(Compile, BatchRunConstructsZeroThreadsPerCall) {
  const Netlist nl =
      elaborate_network(optimal_7(), 4, sort2_builder(), "pool_reuse");
  Xoshiro256 rng(4321);
  std::vector<Word> corpus;
  for (int v = 0; v < 600; ++v) {  // 3 lane groups => sharding engages
    corpus.push_back(random_ternary(rng, nl.inputs().size()));
  }

  BatchOptions opt;
  opt.threads = 3;
  const std::uint64_t before = ThreadPool::threads_started();
  const BatchEvaluator be(nl, opt);
  EXPECT_EQ(ThreadPool::threads_started(), before + 2);

  const std::vector<Trit> first = run_flat(be, corpus);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(run_flat(be, corpus), first);
  }
  EXPECT_EQ(ThreadPool::threads_started(), before + 2)
      << "BatchEvaluator::run_flat must not construct threads per call";
}

// run_flat (the blocked transposes plus reused slots) against the node walk
// and the 64-lane executor, on shapes whose widths are not
// multiples of 8, at round counts around every 8/64/256 boundary, on
// arbitrary trits (metastable ones included), sharded over 4 threads.
TEST(Compile, RunFlatMatchesEveryBackendAcrossShapesAndRoundCounts) {
  const struct {
    const char* name;
    ComparatorNetwork net;
    std::size_t bits;
  } shapes[] = {
      {"2x1", optimal_2(), 1},
      {"3x3", optimal_3(), 3},
      {"10x16", size_optimal_10(), 16},
      {"24x8 composed", composed_sort_network(24, true), 8},
      {"32x16 ppc", ppc_sort_network(32, PpcTopology::ladner_fischer), 16},
  };
  constexpr std::size_t kRounds[] = {1, 7, 63, 64, 65, 255, 256, 257, 1024};
  constexpr std::size_t kMaxRounds = 1024;
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const Netlist nl = elaborate_network(shape.net, shape.bits,
                                         sort2_builder(), shape.name);
    const std::size_t width = nl.inputs().size();
    const std::size_t outs = nl.outputs().size();
    Xoshiro256 rng(width);
    std::vector<Trit> in(kMaxRounds * width);
    for (Trit& t : in) t = trit_from_index(static_cast<int>(rng.below(3)));

    // References for all kMaxRounds rounds: node walk, then the 64-lane
    // executor checked against it.
    std::vector<Trit> want(kMaxRounds * outs);
    NodeWalkEvaluator walk(nl);
    Word out;
    for (std::size_t r = 0; r < kMaxRounds; ++r) {
      walk.run_outputs(std::span<const Trit>(in).subspan(r * width, width),
                       out);
      for (std::size_t o = 0; o < outs; ++o) want[r * outs + o] = out[o];
    }
    const CompiledProgram prog = CompiledProgram::compile(nl);
    CompiledExecutor<Packed64Backend> packed64(prog);
    std::vector<PackedTrit> lanes(width);
    for (std::size_t base = 0; base < kMaxRounds; base += 64) {
      for (std::size_t i = 0; i < width; ++i) {
        for (int lane = 0; lane < 64; ++lane) {
          lanes[i].set_lane(lane, in[(base + lane) * width + i]);
        }
      }
      packed64.run(lanes);
      for (int lane = 0; lane < 64; ++lane) {
        const std::size_t r = base + static_cast<std::size_t>(lane);
        for (std::size_t o = 0; o < outs; ++o) {
          ASSERT_EQ(packed64.output_lane(o, lane), want[r * outs + o])
              << "packed64 r=" << r << " o=" << o;
        }
      }
    }

    BatchOptions sharded;
    sharded.threads = 4;
    const BatchEvaluator batch(nl, sharded);
    for (const std::size_t rounds : kRounds) {
      // One round of sentinels past the end catches stray writes.
      std::vector<Trit> got((rounds + 1) * outs, Trit::meta);
      batch.run_flat(std::span<const Trit>(in).first(rounds * width),
                     std::span<Trit>(got).first(rounds * outs));
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k], k < rounds * outs ? want[k] : Trit::meta)
            << "rounds=" << rounds << " r=" << k / outs << " o=" << k % outs;
      }
    }
  }
}

// Constant slots are materialized once per executor and never handed to a
// gate, so an executor reused for a second run must still see them: its
// second run equals a fresh executor's run on the same inputs.
TEST(Compile, ReusedExecutorKeepsConstantsAcrossRuns) {
  Netlist nl("const_reuse");
  constexpr int kInputs = 12;
  std::vector<NodeId> x;
  for (int i = 0; i < kInputs; ++i) {
    x.push_back(nl.add_input(std::string("x").append(std::to_string(i))));
  }
  const NodeId one = nl.constant(true);
  const NodeId zero = nl.constant(false);
  // Early levels free the input slots; the constants are read again in
  // the last levels, after many slots have been reused.
  std::vector<NodeId> v;
  for (int i = 0; i < kInputs; ++i) v.push_back(nl.and2(x[i], one));
  for (int level = 0; level < 4; ++level) {
    std::vector<NodeId> next;
    for (int i = 0; i < kInputs; ++i) {
      next.push_back(nl.xor2(v[i], v[(i + 1) % kInputs]));
    }
    v = std::move(next);
  }
  for (int i = 0; i < kInputs; ++i) {
    nl.mark_output(nl.mux2(nl.or2(v[i], zero), one, v[i]),
                   std::string("o").append(std::to_string(i)));
    nl.mark_output(nl.nor2(v[i], zero),
                   std::string("n").append(std::to_string(i)));
  }

  const CompiledProgram prog = CompiledProgram::compile(nl);
  ASSERT_EQ(prog.const_inits().size(), 2u);
  ASSERT_LT(prog.slot_count(), static_cast<std::size_t>(
                                   kInputs + 2 + prog.ops().size()))
      << "the program must reuse slots for this test to mean anything";

  Xoshiro256 rng(5);
  const auto random_lanes = [&] {
    std::vector<PackedTrit256> lanes(kInputs);
    for (PackedTrit256& v : lanes) {
      for (int lane = 0; lane < PackedTrit256::kLanes; ++lane) {
        v.set_lane(lane, trit_from_index(static_cast<int>(rng.below(3))));
      }
    }
    return lanes;
  };
  const std::vector<PackedTrit256> first = random_lanes();
  const std::vector<PackedTrit256> second = random_lanes();

  CompiledExecutor<Packed256Backend> reused(prog);
  reused.run(first);
  reused.run(second);
  CompiledExecutor<Packed256Backend> fresh(prog);
  fresh.run(second);
  for (std::size_t o = 0; o < prog.output_count(); ++o) {
    EXPECT_EQ(reused.output(o), fresh.output(o)) << "output " << o;
  }
  // And both agree with the node walk, lane by lane.
  NodeWalkEvaluator walk(nl);
  Word want;
  std::vector<Trit> round(kInputs);
  for (int lane = 0; lane < PackedTrit256::kLanes; ++lane) {
    for (int i = 0; i < kInputs; ++i) round[i] = second[i].lane(lane);
    walk.run_outputs(round, want);
    for (std::size_t o = 0; o < prog.output_count(); ++o) {
      ASSERT_EQ(reused.output_lane(o, lane), want[o])
          << "lane " << lane << " output " << o;
    }
  }
}

// Integer rounds Gray-encoded into one batch request come back decoded by
// values() as each round's ascending sort, round by round.
TEST(Compile, ValueBatchRequestRoundTrips) {
  const McSorter sorter(4, 6);
  const std::vector<std::vector<std::uint64_t>> rounds = {
      {9, 3, 60, 17}, {0, 63, 1, 62}, {5, 5, 5, 5}};
  std::vector<Trit> flat;
  for (const std::vector<std::uint64_t>& round : rounds) {
    for (const std::uint64_t v : round) {
      const Word w = gray_encode(v, 6);
      flat.insert(flat.end(), w.begin(), w.end());
    }
  }
  const StatusOr<std::vector<std::uint64_t>> got =
      sorter
          .sort_request(*SortRequest::own_batch(sorter.shape(), rounds.size(),
                                                std::move(flat)))
          .values();
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_EQ(got->size(), rounds.size() * 4);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::vector<std::uint64_t> want = rounds[r];
    std::sort(want.begin(), want.end());
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got->begin() + r * 4))
        << "round " << r;
  }
}

}  // namespace
}  // namespace mcsn
