// Ternary and packed netlist evaluation, including the property that every
// cell's ternary behavior is the metastable closure of its Boolean function.

#include "mcsn/netlist/eval.hpp"

#include <gtest/gtest.h>

#include "mcsn/core/closure.hpp"
#include "mcsn/netlist/compile.hpp"

namespace mcsn {
namespace {

Netlist mux_circuit() {
  Netlist nl("cmux_sop");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId s = nl.add_input("s");
  // Plain SOP mux WITHOUT the redundant a&b term: NOT containing.
  const NodeId o = nl.or2(nl.and2(a, nl.inv(s)), nl.and2(b, s));
  nl.mark_output(o, "o");
  return nl;
}

TEST(Eval, StableMuxBehavior) {
  const Netlist nl = mux_circuit();
  EXPECT_EQ(evaluate(nl, *Word::parse("010")).str(), "0");
  EXPECT_EQ(evaluate(nl, *Word::parse("011")).str(), "1");
  EXPECT_EQ(evaluate(nl, *Word::parse("100")).str(), "1");
  EXPECT_EQ(evaluate(nl, *Word::parse("101")).str(), "0");
}

// The SOP mux leaks M when select is metastable even with equal inputs —
// the classic motivation for the cmux/selection circuit.
TEST(Eval, SopMuxLeaksMetastability) {
  const Netlist nl = mux_circuit();
  EXPECT_EQ(evaluate(nl, *Word::parse("11M")).str(), "M");
  EXPECT_EQ(evaluate(nl, *Word::parse("00M")).str(), "0");  // AND masks
}

TEST(Eval, ConstantsEvaluate) {
  Netlist nl;
  const NodeId c1 = nl.constant(true);
  const NodeId a = nl.add_input("a");
  nl.mark_output(nl.and2(c1, a), "o");
  EXPECT_EQ(evaluate(nl, *Word::parse("M")).str(), "M");
  EXPECT_EQ(evaluate(nl, *Word::parse("1")).str(), "1");
}

// Every multi-input cell computes the closure of its Boolean function
// (checked by brute-force enumeration of resolutions).
TEST(Eval, EveryCellComputesItsClosure) {
  const CellKind kinds[] = {CellKind::inv,   CellKind::and2, CellKind::or2,
                            CellKind::nand2, CellKind::nor2, CellKind::xor2,
                            CellKind::xnor2, CellKind::mux2, CellKind::aoi21,
                            CellKind::oai21, CellKind::ao21, CellKind::oa21};
  for (const CellKind k : kinds) {
    const int arity = cell_arity(k);
    const auto boolean_fn = [k](const Word& in) {
      return Word{to_trit(cell_eval_bool(k, to_bool(in[0]),
                                         in.size() > 1 && to_bool(in[1]),
                                         in.size() > 2 && to_bool(in[2])))};
    };
    std::uint64_t total = 1;
    for (int i = 0; i < arity; ++i) total *= 3;
    for (std::uint64_t v = 0; v < total; ++v) {
      Word in(static_cast<std::size_t>(arity));
      std::uint64_t x = v;
      for (int i = 0; i < arity; ++i) {
        in[i] = trit_from_index(static_cast<int>(x % 3));
        x /= 3;
      }
      const Trit direct =
          cell_eval(k, in[0], arity > 1 ? in[1] : Trit::zero,
                    arity > 2 ? in[2] : Trit::zero);
      const Word closed = closure_unary(boolean_fn, in);
      EXPECT_EQ(direct, closed[0])
          << cell_name(k) << " on " << in.str();
    }
  }
}

TEST(Eval, EvaluatorReuseMatchesOneShot) {
  const Netlist nl = mux_circuit();
  NodeWalkEvaluator ev(nl);
  Word out;
  for (const char* s : {"000", "101", "M11", "0M1", "11M"}) {
    const Word in = *Word::parse(s);
    std::vector<Trit> v(in.begin(), in.end());
    ev.run_outputs(v, out);
    EXPECT_EQ(out, evaluate(nl, in)) << s;
  }
}

// The compiled program (64-lane backend, lane 0) and the node walker are
// interchangeable: identical outputs on the full ternary input space.
TEST(Eval, CompiledEvaluatorMatchesNodeWalk) {
  const Netlist nl = mux_circuit();
  const CompiledProgram prog = CompiledProgram::compile(nl);
  CompiledExecutor<Packed64Backend> compiled(prog);
  NodeWalkEvaluator walk(nl);
  Word want;
  for (const Trit x : kAllTrits) {
    for (const Trit y : kAllTrits) {
      for (const Trit s : kAllTrits) {
        const Trit in[3] = {x, y, s};
        const PackedTrit packed[3] = {PackedTrit::splat(x),
                                      PackedTrit::splat(y),
                                      PackedTrit::splat(s)};
        compiled.run(std::span<const PackedTrit>(packed, 3));
        walk.run_outputs(std::span<const Trit>(in, 3), want);
        ASSERT_EQ(want.size(), prog.output_count());
        for (std::size_t o = 0; o < want.size(); ++o) {
          ASSERT_EQ(compiled.output_lane(o, 0), want[o]);
        }
      }
    }
  }
}

// Packed evaluation lane-for-lane equals scalar evaluation.
TEST(Eval, PackedMatchesScalar) {
  const Netlist nl = mux_circuit();
  // 27 ternary combos of 3 inputs, one per lane.
  std::vector<PackedTrit> inputs(3, PackedTrit::splat(Trit::zero));
  std::vector<Word> lanes;
  int lane = 0;
  for (const Trit a : kAllTrits) {
    for (const Trit b : kAllTrits) {
      for (const Trit s : kAllTrits) {
        inputs[0].set_lane(lane, a);
        inputs[1].set_lane(lane, b);
        inputs[2].set_lane(lane, s);
        lanes.push_back(Word{a, b, s});
        ++lane;
      }
    }
  }
  const CompiledProgram prog = CompiledProgram::compile(nl);
  CompiledExecutor<Packed64Backend> pev(prog);
  pev.run(inputs);
  for (int l = 0; l < lane; ++l) {
    EXPECT_EQ(pev.output_lane(0, l), evaluate(nl, lanes[static_cast<std::size_t>(l)])[0])
        << "lane " << l;
  }
}

}  // namespace
}  // namespace mcsn
