// Equivalence checking in both semantics, including the central MC trap:
// Boolean-equivalent circuits that are NOT ternary-equivalent (the formal
// content of the paper's footnote 2 and its "disable optimization" flow).

#include "mcsn/netlist/equiv.hpp"

#include <gtest/gtest.h>

#include "mcsn/ckt/ops.hpp"
#include "mcsn/ckt/sort2.hpp"
#include "mcsn/ckt/sort2_baselines.hpp"
#include "mcsn/netlist/eval.hpp"

namespace mcsn {
namespace {

// Plain SOP mux: a&~s | b&s.
Netlist sop_mux() {
  Netlist nl("sop_mux");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId s = nl.add_input("s");
  nl.mark_output(nl.or2(nl.and2(a, nl.inv(s)), nl.and2(b, s)), "f");
  return nl;
}

// Containing mux: the 5-gate selection circuit with tied selects.
Netlist mc_mux() {
  Netlist nl("mc_mux");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId s = nl.add_input("s");
  nl.mark_output(cmux(nl, a, b, s), "f");
  return nl;
}

TEST(Equiv, MuxesBooleanEquivalent) {
  EquivOptions opt;
  opt.semantics = EquivSemantics::boolean_only;
  EXPECT_FALSE(check_equivalence(sop_mux(), mc_mux(), opt));
}

TEST(Equiv, MuxesTernaryInequivalentWithWitness) {
  EquivOptions opt;
  opt.semantics = EquivSemantics::ternary;
  const auto mismatch = check_equivalence(sop_mux(), mc_mux(), opt);
  ASSERT_TRUE(mismatch);
  // The witness must have a metastable select with equal stable data
  // (that is the only place the two differ).
  EXPECT_EQ(mismatch->input[2], Trit::meta);
  EXPECT_EQ(mismatch->input[0], mismatch->input[1]);
  EXPECT_TRUE(is_stable(mismatch->input[0]));
  EXPECT_FALSE(mismatch->describe().empty());
}

// POS mux: (a | s) & (b | ~s). Boolean-equivalent to the others, but fails
// containment on the *opposite* corner from the SOP form: equal-zero data.
// Together with MuxesTernaryInequivalent this is the footnote-2 phenomenon:
// among Boolean-equivalent formulas, only carefully chosen ones compute the
// metastable closure — which is why the paper's flow forbids resynthesis.
TEST(Equiv, PosMuxBooleanEquivalentButLeaksOnZeros) {
  Netlist pos("pos_mux");
  {
    const NodeId a = pos.add_input("a");
    const NodeId b = pos.add_input("b");
    const NodeId s = pos.add_input("s");
    pos.mark_output(pos.and2(pos.or2(a, s), pos.or2(b, pos.inv(s))), "f");
  }
  EquivOptions boolean;
  boolean.semantics = EquivSemantics::boolean_only;
  EXPECT_FALSE(check_equivalence(pos, mc_mux(), boolean));

  // Ternary witness: a = b = 0, s = M -> closure says 0, POS mux says M.
  const Word witness = *Word::parse("00M");
  EXPECT_EQ(evaluate(mc_mux(), witness).str(), "0");
  EXPECT_EQ(evaluate(pos, witness).str(), "M");
  // And the SOP mux fails on ones but works on zeros — the failures are
  // complementary, so no two of the three are ternary-equivalent.
  EXPECT_EQ(evaluate(sop_mux(), witness).str(), "0");
  EXPECT_EQ(evaluate(sop_mux(), *Word::parse("11M")).str(), "M");
  EXPECT_EQ(evaluate(pos, *Word::parse("11M")).str(), "1");
  const auto mismatch = check_equivalence(pos, sop_mux());
  ASSERT_TRUE(mismatch);
}

TEST(Equiv, EquivalentCircuitsPassBothSemantics) {
  const Netlist a = make_sort2(4);
  const Netlist b = make_sort2(4, Sort2Options{PpcTopology::kogge_stone});
  // Different internal structure, same function on valid inputs; on
  // arbitrary ternary inputs they agree too (same operator blocks in
  // different associations — equal because ⋄M is associative everywhere,
  // see fsm_test).
  EXPECT_FALSE(check_equivalence(a, b));
}

TEST(Equiv, RandomSamplingModeAboveExhaustiveBound) {
  const Netlist a = make_sort2(8);
  const Netlist b = make_sort2_date17_style(8);
  EquivOptions opt;
  opt.exhaustive_bound = 1000;  // force sampling (3^32 combos)
  opt.random_samples = 20'000;
  opt.semantics = EquivSemantics::boolean_only;
  EXPECT_FALSE(check_equivalence(a, b, opt));
}

TEST(Equiv, DetectsSingleGateDifference) {
  Netlist a("a"), b("b");
  for (Netlist* nl : {&a, &b}) {
    const NodeId x = nl->add_input("x");
    const NodeId y = nl->add_input("y");
    nl->mark_output(nl == &a ? nl->and2(x, y) : nl->or2(x, y), "f");
  }
  const auto mismatch = check_equivalence(a, b);
  ASSERT_TRUE(mismatch);
  EXPECT_NE(mismatch->output_a, mismatch->output_b);
}

// A netlist without inputs has one input vector, the empty one.
TEST(Equiv, ConstantCircuitsWithoutInputs) {
  Netlist zero("zero"), one("one");
  zero.mark_output(zero.constant(false), "f");
  one.mark_output(one.constant(true), "f");
  EXPECT_FALSE(check_equivalence(zero, zero));
  const auto mismatch = check_equivalence(zero, one);
  ASSERT_TRUE(mismatch);
  EXPECT_TRUE(mismatch->input.empty());
  EXPECT_EQ(mismatch->output_a.str(), "0");
  EXPECT_EQ(mismatch->output_b.str(), "1");
}

}  // namespace
}  // namespace mcsn
