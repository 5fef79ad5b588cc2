// Cross-cutting property suites:
//  * refinement monotonicity of the closure operators and of whole circuits
//    on arbitrary ternary inputs,
//  * Theorem 4.1 over ALL parenthesizations (Catalan enumeration),
//  * idempotence of sorting at the netlist level (sort twice == sort once),
//  * packed/scalar evaluator agreement on the real circuits.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "mcsn/mcsn.hpp"

namespace mcsn {
namespace {

// x refines y (x is "at least as defined"): every stable bit of y agrees.
bool refines(TritPair x, TritPair y) {
  const auto bit_refines = [](Trit xb, Trit yb) {
    return is_meta(yb) || xb == yb;
  };
  return bit_refines(x.first, y.first) && bit_refines(x.second, y.second);
}

// Closure operators are monotone w.r.t. the information order: more defined
// inputs can only give more defined (consistent) outputs. Exhaustive 9^2/9^2.
TEST(Property, DiamondAndOutClosuresAreRefinementMonotone) {
  for (int s1 = 0; s1 < kPairCount; ++s1) {
    for (int b1 = 0; b1 < kPairCount; ++b1) {
      const TritPair s = TritPair::from_index(s1);
      const TritPair b = TritPair::from_index(b1);
      for (int s2 = 0; s2 < kPairCount; ++s2) {
        for (int b2 = 0; b2 < kPairCount; ++b2) {
          const TritPair sr = TritPair::from_index(s2);
          const TritPair br = TritPair::from_index(b2);
          if (!refines(sr, s) || !refines(br, b)) continue;
          EXPECT_TRUE(refines(diamond_m(sr, br), diamond_m(s, b)));
          EXPECT_TRUE(refines(out_m(sr, br), out_m(s, b)));
        }
      }
    }
  }
}

// Enumerates all parenthesizations (full binary trees) over the leaf range:
// returns every possible fold value of leaves[lo..hi] over diamond_m.
std::vector<TritPair> fold_values(const std::vector<TritPair>& leaves,
                                  std::size_t lo, std::size_t hi) {
  if (lo == hi) return {leaves[lo]};
  std::vector<TritPair> out;
  for (std::size_t split = lo; split < hi; ++split) {
    for (const TritPair a : fold_values(leaves, lo, split)) {
      for (const TritPair b : fold_values(leaves, split + 1, hi)) {
        out.push_back(diamond_m(a, b));
      }
    }
  }
  return out;
}

// Theorem 4.1, strengthened test: for valid strings, EVERY parenthesization
// of ⋄M yields the same value (the paper proves it for the ones a PPC uses;
// we check all Catalan(n-1) trees at B=5).
TEST(Property, Theorem41AllParenthesizations) {
  const std::size_t bits = 5;
  const std::vector<Word> all = all_valid_strings(bits);
  // Subsample pairs for runtime: every 3rd string against every 5th.
  for (std::size_t a = 0; a < all.size(); a += 3) {
    for (std::size_t b = 0; b < all.size(); b += 5) {
      std::vector<TritPair> leaves(bits);
      for (std::size_t i = 0; i < bits; ++i) {
        leaves[i] = TritPair{all[a][i], all[b][i]};
      }
      const std::vector<TritPair> folds = fold_values(leaves, 0, bits - 1);
      ASSERT_EQ(folds.size(), 14u);  // Catalan(4)
      for (const TritPair f : folds) {
        EXPECT_EQ(f, folds.front())
            << all[a].str() << " / " << all[b].str();
      }
    }
  }
}

// Whole-circuit refinement monotonicity on ARBITRARY ternary inputs (not
// just valid strings): a circuit of closure gates is always monotone.
TEST(Property, Sort2RefinementMonotoneOnArbitraryTernary) {
  const std::size_t bits = 4;
  const Netlist nl = make_sort2(bits);
  NodeWalkEvaluator ev(nl);
  Xoshiro256 rng(314);
  Word base_out, ref_out;
  std::vector<Trit> in;
  for (int trial = 0; trial < 400; ++trial) {
    Word w(2 * bits);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = trit_from_index(static_cast<int>(rng.below(3)));
    }
    in.assign(w.begin(), w.end());
    ev.run_outputs(in, base_out);
    // Refine one random M (if any).
    std::vector<std::size_t> metas;
    for (std::size_t i = 0; i < w.size(); ++i) {
      if (is_meta(w[i])) metas.push_back(i);
    }
    if (metas.empty()) continue;
    Word r = w;
    r[metas[rng.below(metas.size())]] = to_trit(rng.below(2) == 1);
    in.assign(r.begin(), r.end());
    ev.run_outputs(in, ref_out);
    EXPECT_TRUE(base_out.matches_resolution(ref_out) ||
                [&] {
                  // matches_resolution requires stability; check per-trit
                  // refinement instead.
                  for (std::size_t i = 0; i < base_out.size(); ++i) {
                    if (!is_meta(base_out[i]) && base_out[i] != ref_out[i]) {
                      return false;
                    }
                  }
                  return true;
                }())
        << w.str();
  }
}

// Sorting is idempotent at the netlist level: chain two sorters.
TEST(Property, SortingTwiceEqualsSortingOnce) {
  const std::size_t bits = 3;
  Netlist nl("double_sort");
  std::vector<Bus> ch(4);
  for (int c = 0; c < 4; ++c) {
    ch[static_cast<std::size_t>(c)] =
        nl.add_input_bus("ch" + std::to_string(c), bits);
  }
  const ComparatorNetwork net = optimal_4();
  auto apply_network = [&](std::vector<Bus> buses) {
    for (const auto& layer : net.layers()) {
      for (const Comparator& c : layer) {
        const BusPair s = build_sort2(nl, buses[static_cast<std::size_t>(c.lo)],
                                      buses[static_cast<std::size_t>(c.hi)]);
        buses[static_cast<std::size_t>(c.lo)] = s.min;
        buses[static_cast<std::size_t>(c.hi)] = s.max;
      }
    }
    return buses;
  };
  const std::vector<Bus> once = apply_network(ch);
  const std::vector<Bus> twice = apply_network(once);
  for (int c = 0; c < 4; ++c) {
    nl.mark_output_bus(once[static_cast<std::size_t>(c)],
                       "once" + std::to_string(c));
  }
  for (int c = 0; c < 4; ++c) {
    nl.mark_output_bus(twice[static_cast<std::size_t>(c)],
                       "twice" + std::to_string(c));
  }

  NodeWalkEvaluator ev(nl);
  Xoshiro256 rng(99);
  Word out;
  std::vector<Trit> in;
  for (int trial = 0; trial < 500; ++trial) {
    in.clear();
    for (int c = 0; c < 4; ++c) {
      const Word w = valid_from_rank(rng.below(valid_count(bits)), bits);
      in.insert(in.end(), w.begin(), w.end());
    }
    ev.run_outputs(in, out);
    const std::size_t half = 4 * bits;
    EXPECT_EQ(out.sub(0, half - 1), out.sub(half, 2 * half - 1));
  }
}

// Packed and scalar evaluators agree on the paper's big circuit.
TEST(Property, PackedScalarAgreementOnSort2) {
  const std::size_t bits = 16;
  const Netlist nl = make_sort2(bits);
  NodeWalkEvaluator scalar(nl);
  const CompiledProgram prog = CompiledProgram::compile(nl);
  CompiledExecutor<Packed64Backend> packed(prog);
  Xoshiro256 rng(555);
  std::vector<PackedTrit> pin(2 * bits);
  std::vector<Word> words(64, Word(2 * bits));
  for (int lane = 0; lane < 64; ++lane) {
    for (std::size_t i = 0; i < 2 * bits; ++i) {
      const Trit t = trit_from_index(static_cast<int>(rng.below(3)));
      words[static_cast<std::size_t>(lane)][i] = t;
      pin[i].set_lane(lane, t);
    }
  }
  packed.run(pin);
  Word out;
  std::vector<Trit> in;
  for (int lane = 0; lane < 64; ++lane) {
    const Word& w = words[static_cast<std::size_t>(lane)];
    in.assign(w.begin(), w.end());
    scalar.run_outputs(in, out);
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      ASSERT_EQ(out[o], packed.output_lane(o, lane)) << lane;
    }
  }
}

// The FSM reference model is refinement-monotone too (it is built from
// closure tables).
TEST(Property, FsmSortRefinementMonotone) {
  const std::size_t bits = 6;
  Xoshiro256 rng(777);
  for (int trial = 0; trial < 1000; ++trial) {
    const Word g = valid_from_rank(rng.below(valid_count(bits)), bits);
    const Word h = valid_from_rank(rng.below(valid_count(bits)), bits);
    const auto [mx, mn] = GrayCompareFsm::sort2(g, h);
    Word gr = g, hr = h;
    gr.for_each_resolution([&](const Word& gres) {
      hr.for_each_resolution([&](const Word& hres) {
        const auto [rmx, rmn] = GrayCompareFsm::sort2(gres, hres);
        EXPECT_TRUE(mx.matches_resolution(rmx));
        EXPECT_TRUE(mn.matches_resolution(rmn));
      });
    });
  }
}

}  // namespace
}  // namespace mcsn
