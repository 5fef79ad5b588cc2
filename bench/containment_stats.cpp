// E-extra — containment Monte-Carlo: quantifies the paper's motivation.
// Random measurement rounds on a 10-channel sorter where each channel is
// marginal (one metastable bit) with probability p; we count metastable
// bits at the outputs for
//   * the MC design (paper):  #marginal outputs == #marginal inputs, always;
//   * Bin-comp (non-containing): a single marginal bit can poison many
//     output bits through the comparator selects.
// This is the quantitative version of the paper's "uncertainty of one
// measurement step" guarantee.

#include <iostream>

#include "mcsn/mcsn.hpp"

int main() {
  using namespace mcsn;
  const std::size_t bits = 8;
  const int channels = 10;
  const int rounds = 400;

  const ComparatorNetwork net = depth_optimal_10();
  const Netlist mc = elaborate_network(net, bits, sort2_builder());
  const Netlist bin = elaborate_network(net, bits, bincomp_builder());
  // All rounds of one probability point go through the compiled batch engine
  // in a single 256-lane-packed, thread-sharded pass per design.
  const BatchEvaluator mc_eval(mc);
  const BatchEvaluator bin_eval(bin);

  std::cout << "Containment under marginal-measurement probability p\n"
            << "(10-sortd, B=8, " << rounds << " rounds per p)\n\n";
  TextTable t({"p", "marginal in-bits", "MC out-bits", "binary out-bits",
               "MC contained", "binary blowup"});

  for (const double p : {0.05, 0.1, 0.2, 0.5}) {
    Xoshiro256 rng(static_cast<std::uint64_t>(p * 1000));
    long in_bits = 0, mc_bits = 0, bin_bits = 0;
    bool contained = true;
    std::vector<Trit> batch;  // rounds back to back, as run_flat takes them
    std::vector<int> marginal_ins;
    marginal_ins.reserve(rounds);
    for (int round = 0; round < rounds; ++round) {
      int marginal_in = 0;
      for (int c = 0; c < channels; ++c) {
        const bool marginal = rng.uniform() < p;
        std::uint64_t rank = 2 * rng.below(valid_count(bits) / 2);
        if (marginal) {
          rank |= 1;
          ++marginal_in;
        }
        const Word w = valid_from_rank(rank, bits);
        batch.insert(batch.end(), w.begin(), w.end());
      }
      in_bits += marginal_in;
      marginal_ins.push_back(marginal_in);
    }
    const std::size_t outs = mc_eval.output_width();
    std::vector<Trit> mc_outs(rounds * outs);
    std::vector<Trit> bin_outs(rounds * bin_eval.output_width());
    mc_eval.run_flat(batch, mc_outs);
    bin_eval.run_flat(batch, bin_outs);
    for (int round = 0; round < rounds; ++round) {
      const auto r = static_cast<std::size_t>(round);
      int mc_meta = 0, bin_meta = 0;
      for (std::size_t o = r * outs; o < (r + 1) * outs; ++o) {
        mc_meta += is_meta(mc_outs[o]) ? 1 : 0;
        bin_meta += is_meta(bin_outs[o]) ? 1 : 0;
      }
      mc_bits += mc_meta;
      bin_bits += bin_meta;
      if (mc_meta != marginal_ins[r]) contained = false;
    }
    t.add_row({TextTable::num(p, 2), std::to_string(in_bits),
               std::to_string(mc_bits), std::to_string(bin_bits),
               contained ? "exact" : "VIOLATED",
               TextTable::num(in_bits ? static_cast<double>(bin_bits) /
                                            static_cast<double>(in_bits)
                                      : 0.0,
                              1) +
                   "x"});
  }
  t.print(std::cout);
  std::cout << "\nMC out-bits == marginal in-bits in every round: the sorter\n"
               "neither duplicates nor spreads measurement uncertainty.\n";
  return 0;
}
