#pragma once
// Combinational equivalence checking between two netlists with the same
// interface, in two semantics:
//
//   * Boolean  — inputs range over {0,1}. Classical synthesis equivalence.
//   * Ternary  — inputs range over {0,1,M}. This is the semantics that
//                matters for metastability-containment.
//
// Two circuits can be Boolean-equivalent yet ternary-INEQUIVALENT (that is
// exactly why the paper's flow disables Boolean optimization); the checker
// distinguishes the two and returns a witness input on mismatch.
//
// Exhaustive up to a guarded input count (flat vector chunks through
// BatchEvaluator::run_flat, 256 lanes per pass); randomized sampling above
// that.

#include <optional>
#include <string>

#include "mcsn/core/word.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

enum class EquivSemantics { boolean_only, ternary };

struct EquivMismatch {
  Word input;
  Word output_a;
  Word output_b;
  [[nodiscard]] std::string describe() const;
};

struct EquivOptions {
  EquivSemantics semantics = EquivSemantics::ternary;
  /// Exhaustive when semantics-space size (2^n or 3^n) <= this bound;
  /// randomized sampling otherwise.
  std::uint64_t exhaustive_bound = 1u << 22;
  std::uint64_t random_samples = 100'000;
  std::uint64_t seed = 1;
};

/// Checks a and b produce identical outputs. Preconditions: same input
/// count and same output count. Returns a witness on mismatch, nullopt if
/// equivalent (up to sampling, when beyond the exhaustive bound).
[[nodiscard]] std::optional<EquivMismatch> check_equivalence(
    const Netlist& a, const Netlist& b, const EquivOptions& opt = {});

// --- Formal (BDD-based) checking -------------------------------------------

struct FormalEquivOptions {
  EquivSemantics semantics = EquivSemantics::ternary;
  /// Optional variable order: rank per input index (lower rank = closer to
  /// the BDD root). Interleaving the two operand buses of a comparator
  /// keeps its BDDs small. Empty = input order.
  std::vector<int> var_order;
  std::size_t node_limit = 2'000'000;
};

struct FormalEquivResult {
  bool equivalent = false;
  /// Inequivalence witness (ternary word under ternary semantics, 0/1 word
  /// under Boolean semantics).
  std::optional<Word> witness;
  std::size_t bdd_nodes = 0;  // peak unique-table size
};

/// Formal combinational equivalence via ROBDDs. Under ternary semantics the
/// circuits are encoded dual-rail (two Boolean variables per input), so the
/// verdict covers ALL ternary inputs — a proof, not a sample. Throws
/// std::length_error if the BDDs exceed `node_limit`.
[[nodiscard]] FormalEquivResult check_equivalence_formal(
    const Netlist& a, const Netlist& b, const FormalEquivOptions& opt = {});

}  // namespace mcsn
