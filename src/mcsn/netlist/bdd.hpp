#pragma once
// Reduced ordered binary decision diagrams (ROBDDs), used for *formal*
// combinational equivalence checking — including formal TERNARY equivalence
// via a dual-rail encoding (each ternary signal becomes two Boolean rails
// (can0, can1); Kleene gates become monotone rail algebra, cf. core/packed).
//
// Classic implementation: unique table for canonicity, ITE with a computed
// table, no complement edges (kept simple and auditable). Canonicity makes
// equivalence a pointer comparison; counterexamples come from any-SAT path
// extraction.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace mcsn {

class Bdd {
 public:
  using Ref = std::uint32_t;
  static constexpr Ref kFalse = 0;
  static constexpr Ref kTrue = 1;

  /// `var_count` Boolean variables, ordered by index (0 = root-most).
  /// `node_limit` bounds memory; exceeded -> std::length_error.
  explicit Bdd(int var_count, std::size_t node_limit = 4'000'000);

  [[nodiscard]] int var_count() const noexcept { return var_count_; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }

  [[nodiscard]] Ref var(int i);
  [[nodiscard]] Ref nvar(int i);

  [[nodiscard]] Ref ite(Ref f, Ref g, Ref h);
  [[nodiscard]] Ref bdd_not(Ref f) { return ite(f, kFalse, kTrue); }
  [[nodiscard]] Ref bdd_and(Ref f, Ref g) { return ite(f, g, kFalse); }
  [[nodiscard]] Ref bdd_or(Ref f, Ref g) { return ite(f, kTrue, g); }
  [[nodiscard]] Ref bdd_xor(Ref f, Ref g) { return ite(f, bdd_not(g), g); }
  [[nodiscard]] Ref bdd_xnor(Ref f, Ref g) { return ite(f, g, bdd_not(g)); }

  [[nodiscard]] bool is_tautology(Ref f) const noexcept { return f == kTrue; }
  [[nodiscard]] bool is_contradiction(Ref f) const noexcept {
    return f == kFalse;
  }

  /// One satisfying assignment (true iff f != kFalse). Variables not on the
  /// extracted path are left unset (nullopt).
  [[nodiscard]] std::optional<std::vector<std::optional<bool>>> satisfy_one(
      Ref f) const;

  /// Number of satisfying assignments over all var_count variables.
  [[nodiscard]] double sat_count(Ref f) const;

 private:
  struct Node {
    int var;  // kTerminalVar for leaves
    Ref lo, hi;
  };
  static constexpr int kTerminalVar = INT32_MAX;

  [[nodiscard]] Ref mk(int var, Ref lo, Ref hi);
  [[nodiscard]] int top_var(Ref f, Ref g, Ref h) const;
  [[nodiscard]] Ref cofactor(Ref f, int var, bool positive) const;

  int var_count_;
  std::size_t node_limit_;
  std::vector<Node> nodes_;
  std::unordered_map<std::uint64_t, Ref> unique_;
  std::unordered_map<std::uint64_t, Ref> ite_cache_;
};

}  // namespace mcsn
