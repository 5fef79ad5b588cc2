// Abstraction soundness: on ARBITRARY ternary inputs (even invalid ones),
// the gate-level circuit is a *sound abstraction* of the ideal metastable
// closure: wherever the circuit outputs a stable value, the ideal closure
// outputs the same value (the circuit may only be more pessimistic — extra
// Ms — never wrong). On valid strings the two coincide exactly (the paper's
// theorems; tested elsewhere). Uses check_exhaustive_ternary for the
// full-domain sweeps.

#include <gtest/gtest.h>

#include "mcsn/ckt/sort2.hpp"
#include "mcsn/core/spec.hpp"
#include "mcsn/netlist/check.hpp"
#include "mcsn/netlist/eval.hpp"

namespace mcsn {
namespace {

// a ⊑ b: b refines a (b agrees with every stable bit of a).
bool abstracts(const Word& a, const Word& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!is_meta(a[i]) && a[i] != b[i]) return false;
  }
  return true;
}

// OBSERVED STRENGTHENING (exhaustive through B=4, i.e. 3^8 = 6561 ternary
// input combinations): the gate-level circuit does not just soundly
// abstract the ideal closure — it computes it EXACTLY on every ternary
// input, including words that are not valid strings (multiple Ms,
// non-neighbor superpositions). The paper only claims exactness on valid
// strings; we record the stronger empirical property at the widths we can
// enumerate, and assert soundness in any case.
TEST(Soundness, CircuitEqualsIdealClosureOnAllTernaryInputsUpToB4) {
  for (const std::size_t bits : {2u, 3u, 4u}) {
    const Netlist nl = make_sort2(bits);
    NodeWalkEvaluator ev(nl);
    Word out;
    std::vector<Trit> in;
    std::uint64_t total = 1;
    for (std::size_t i = 0; i < 2 * bits; ++i) total *= 3;
    for (std::uint64_t v = 0; v < total; ++v) {
      Word w(2 * bits);
      std::uint64_t x = v;
      for (std::size_t i = 0; i < w.size(); ++i) {
        w[i] = trit_from_index(static_cast<int>(x % 3));
        x /= 3;
      }
      in.assign(w.begin(), w.end());
      ev.run_outputs(in, out);
      const auto [mx, mn] =
          sort2_spec_closure(w.sub(0, bits - 1), w.sub(bits, 2 * bits - 1));
      const Word ideal = mx + mn;
      ASSERT_TRUE(abstracts(out, ideal))
          << "soundness violated at " << w.str() << ": circuit " << out.str()
          << " vs ideal " << ideal.str();
      ASSERT_EQ(out, ideal) << "exactness lost at " << w.str();
    }
  }
}

// At larger widths we cannot enumerate 3^(2B), but soundness must still hold
// on random arbitrary-ternary samples.
TEST(Soundness, CircuitSoundOnRandomTernaryAtB8) {
  const std::size_t bits = 8;
  const Netlist nl = make_sort2(bits);
  NodeWalkEvaluator ev(nl);
  Word out;
  std::vector<Trit> in;
  std::uint64_t seed = 12345;
  for (int trial = 0; trial < 300; ++trial) {
    Word w(2 * bits);
    for (std::size_t i = 0; i < w.size(); ++i) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      w[i] = trit_from_index(static_cast<int>((seed >> 33) % 3));
    }
    in.assign(w.begin(), w.end());
    ev.run_outputs(in, out);
    const auto [mx, mn] =
        sort2_spec_closure(w.sub(0, bits - 1), w.sub(bits, 2 * bits - 1));
    ASSERT_TRUE(abstracts(out, mx + mn)) << w.str();
  }
}

// check_exhaustive_ternary: the single out block IS exactly the ideal
// closure on its whole 4-trit domain (proved in ops_test via tables; here
// exercised through the generic checker API).
TEST(Soundness, CheckExhaustiveTernaryApi) {
  Netlist nl("or_and");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  nl.mark_output(nl.or2(a, b), "max");
  nl.mark_output(nl.and2(a, b), "min");
  const auto fail = check_exhaustive_ternary(nl, [](const Word& in) {
    return Word{trit_or(in[0], in[1]), trit_and(in[0], in[1])};
  });
  EXPECT_FALSE(fail) << (fail ? fail->describe() : "");

  // And a deliberately wrong spec is caught.
  const auto caught = check_exhaustive_ternary(nl, [](const Word& in) {
    return Word{trit_and(in[0], in[1]), trit_or(in[0], in[1])};
  });
  ASSERT_TRUE(caught);
  EXPECT_FALSE(caught->describe().empty());
}

TEST(Soundness, CheckExhaustiveTernaryGuardsWidth) {
  Netlist nl("wide");
  Bus in = nl.add_input_bus("x", 13);
  nl.mark_output(in[0], "y");
  EXPECT_THROW(
      (void)check_exhaustive_ternary(nl, [](const Word& w) { return w; }),
      std::length_error);
}

// Resolution-count guard on Word.
TEST(Soundness, ResolutionGuard) {
  Word w(25, Trit::meta);
  EXPECT_THROW((void)w.resolutions(), std::length_error);
}

}  // namespace
}  // namespace mcsn
