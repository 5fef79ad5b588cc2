#pragma once
// Netlist evaluation under the ternary (metastable closure) semantics of the
// paper's computational model.
//
// NodeWalkEvaluator is the single-vector evaluator: it walks the nodes in
// creation order and dispatches on CellKind per node. It is the reference
// that the compiled engine in compile.hpp (CompiledExecutor, BatchEvaluator)
// is differentially tested and benchmarked against.

#include <span>
#include <vector>

#include "mcsn/core/word.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// Evaluates every node; `inputs` are assigned to the primary inputs in
/// creation order. Returns values of all nodes (indexable by NodeId).
[[nodiscard]] std::vector<Trit> evaluate_nodes(const Netlist& nl,
                                               std::span<const Trit> inputs);

/// Evaluates and extracts the outputs (in mark_output order) as a Word.
[[nodiscard]] Word evaluate(const Netlist& nl, std::span<const Trit> inputs);

/// Convenience: input vector given as a Word.
[[nodiscard]] Word evaluate(const Netlist& nl, const Word& inputs);

/// Reusable node-walking evaluator: dispatches on CellKind per node on
/// every call, no dead-node elimination, no compile step. Amortizes
/// allocation across calls — use it for exhaustive sweeps over one netlist.
class NodeWalkEvaluator {
 public:
  explicit NodeWalkEvaluator(const Netlist& nl);

  /// Returns node values (indexable by NodeId); valid until the next run().
  std::span<const Trit> run(std::span<const Trit> inputs);

  /// Runs and copies outputs into `out` (resized as needed).
  void run_outputs(std::span<const Trit> inputs, Word& out);

 private:
  const Netlist* nl_;
  std::vector<Trit> values_;
};

}  // namespace mcsn
