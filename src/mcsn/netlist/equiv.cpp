#include "mcsn/netlist/equiv.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "mcsn/netlist/compile.hpp"
#include "mcsn/util/rng.hpp"

namespace mcsn {

namespace {

// Decodes combination index `v` into one input row over the given radix
// alphabet (radix 2: {0,1}; radix 3: {0,1,M}).
void decode_input(std::uint64_t v, std::span<Trit> row, int radix) {
  for (Trit& t : row) {
    t = trit_from_index(static_cast<int>(v % static_cast<unsigned>(radix)));
    v /= static_cast<unsigned>(radix);
  }
}

Word to_word(std::span<const Trit> trits) {
  Word w(trits.size());
  for (std::size_t i = 0; i < trits.size(); ++i) w[i] = trits[i];
  return w;
}

}  // namespace

std::string EquivMismatch::describe() const {
  return "input=" + input.str() + " a=" + output_a.str() +
         " b=" + output_b.str();
}

std::optional<EquivMismatch> check_equivalence(const Netlist& a,
                                               const Netlist& b,
                                               const EquivOptions& opt) {
  assert(a.inputs().size() == b.inputs().size());
  assert(a.outputs().size() == b.outputs().size());
  const std::size_t width = a.inputs().size();
  const std::size_t outs = a.outputs().size();
  const int radix = opt.semantics == EquivSemantics::boolean_only ? 2 : 3;

  // Total combination count, saturating.
  std::uint64_t total = 1;
  bool overflow = false;
  for (std::size_t i = 0; i < width && !overflow; ++i) {
    if (total > opt.exhaustive_bound) overflow = true;
    total *= static_cast<unsigned>(radix);
  }
  const bool exhaustive = !overflow && total <= opt.exhaustive_bound;

  // Both netlists compile to dense, dead-node-eliminated programs; each
  // chunk of vectors goes through both in one flat run_flat() call, and the
  // vectors are compared in generation order, so the first mismatch found
  // is the first mismatching vector.
  const BatchOptions serial{.threads = 1, .pool = nullptr};
  const BatchEvaluator eva(a, serial);
  const BatchEvaluator evb(b, serial);
  constexpr std::uint64_t kChunk = 4096;
  std::vector<Trit> inputs;
  std::vector<Trit> out_a;
  std::vector<Trit> out_b;

  Xoshiro256 rng(opt.seed);
  const std::uint64_t n_vectors = exhaustive ? total : opt.random_samples;

  for (std::uint64_t done = 0; done < n_vectors;) {
    const std::size_t count =
        static_cast<std::size_t>(std::min(kChunk, n_vectors - done));
    inputs.resize(count * width);
    for (std::size_t v = 0; v < count; ++v) {
      const std::span<Trit> row =
          std::span<Trit>(inputs).subspan(v * width, width);
      if (exhaustive) {
        decode_input(done + v, row, radix);
      } else {
        for (Trit& t : row) {
          t = trit_from_index(
              static_cast<int>(rng.below(static_cast<unsigned>(radix))));
        }
      }
    }
    out_a.resize(count * outs);
    out_b.resize(count * outs);
    eva.run_flat(inputs, out_a);
    evb.run_flat(inputs, out_b);
    const std::span<const Trit> in_rows(inputs);
    const std::span<const Trit> a_rows(out_a);
    const std::span<const Trit> b_rows(out_b);
    for (std::size_t v = 0; v < count; ++v) {
      const std::span<const Trit> ra = a_rows.subspan(v * outs, outs);
      const std::span<const Trit> rb = b_rows.subspan(v * outs, outs);
      if (!std::equal(ra.begin(), ra.end(), rb.begin())) {
        return EquivMismatch{to_word(in_rows.subspan(v * width, width)),
                             to_word(ra), to_word(rb)};
      }
    }
    done += count;
  }
  return std::nullopt;
}

}  // namespace mcsn
