#include "mcsn/netlist/check.hpp"

#include <stdexcept>

#include "mcsn/netlist/eval.hpp"

namespace mcsn {

std::string CheckFailure::describe() const {
  return "input=" + input.str() + " expected=" + expected.str() +
         " actual=" + actual.str();
}

std::optional<CheckFailure> check_against_spec(
    const Netlist& nl, const std::function<Word(const Word&)>& spec,
    const std::function<std::optional<Word>()>& generator) {
  NodeWalkEvaluator ev(nl);
  Word out;
  std::vector<Trit> in;
  while (auto w = generator()) {
    in.assign(w->begin(), w->end());
    ev.run_outputs(in, out);
    const Word want = spec(*w);
    if (!(out == want)) return CheckFailure{*w, want, out};
  }
  return std::nullopt;
}

std::optional<CheckFailure> check_refinement_monotone(
    const Netlist& nl, const std::function<std::optional<Word>()>& generator) {
  NodeWalkEvaluator ev(nl);
  Word base_out, res_out;
  std::vector<Trit> in;
  std::optional<CheckFailure> fail;
  while (auto w = generator()) {
    in.assign(w->begin(), w->end());
    ev.run_outputs(in, base_out);
    w->for_each_resolution([&](const Word& r) {
      if (fail) return;
      in.assign(r.begin(), r.end());
      ev.run_outputs(in, res_out);
      if (!base_out.matches_resolution(res_out)) {
        fail = CheckFailure{*w, base_out, res_out};
      }
    });
    if (fail) return fail;
  }
  return std::nullopt;
}

std::optional<CheckFailure> check_exhaustive_ternary(
    const Netlist& nl, const std::function<Word(const Word&)>& spec) {
  const std::size_t width = nl.inputs().size();
  if (width > 12) {
    throw std::length_error("check_exhaustive_ternary: too many inputs");
  }
  std::uint64_t total = 1;
  for (std::size_t i = 0; i < width; ++i) total *= 3;

  std::uint64_t next = 0;
  auto gen = [&]() -> std::optional<Word> {
    if (next >= total) return std::nullopt;
    Word w(width);
    std::uint64_t v = next++;
    for (std::size_t i = 0; i < width; ++i) {
      w[i] = trit_from_index(static_cast<int>(v % 3));
      v /= 3;
    }
    return w;
  };
  return check_against_spec(nl, spec, gen);
}

}  // namespace mcsn
