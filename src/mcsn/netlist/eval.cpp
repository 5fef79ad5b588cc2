#include "mcsn/netlist/eval.hpp"

#include <cassert>

namespace mcsn {

namespace {

void eval_pass(const Netlist& nl, std::span<const Trit> inputs,
               std::vector<Trit>& values) {
  assert(inputs.size() == nl.inputs().size());
  values.resize(nl.node_count());
  std::size_t next_input = 0;
  const auto& nodes = nl.nodes();
  for (NodeId id = 0; id < nodes.size(); ++id) {
    const GateNode& g = nodes[id];
    switch (g.kind) {
      case CellKind::input: values[id] = inputs[next_input++]; break;
      case CellKind::const0: values[id] = Trit::zero; break;
      case CellKind::const1: values[id] = Trit::one; break;
      default:
        values[id] = cell_eval(g.kind, values[g.in[0]], values[g.in[1]],
                               values[g.in[2]]);
    }
  }
}

}  // namespace

std::vector<Trit> evaluate_nodes(const Netlist& nl,
                                 std::span<const Trit> inputs) {
  std::vector<Trit> values;
  eval_pass(nl, inputs, values);
  return values;
}

Word evaluate(const Netlist& nl, std::span<const Trit> inputs) {
  const std::vector<Trit> values = evaluate_nodes(nl, inputs);
  Word out(nl.outputs().size());
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    out[i] = values[nl.outputs()[i].node];
  }
  return out;
}

Word evaluate(const Netlist& nl, const Word& inputs) {
  std::vector<Trit> in(inputs.begin(), inputs.end());
  return evaluate(nl, in);
}

NodeWalkEvaluator::NodeWalkEvaluator(const Netlist& nl) : nl_(&nl) {
  values_.reserve(nl.node_count());
}

std::span<const Trit> NodeWalkEvaluator::run(std::span<const Trit> inputs) {
  eval_pass(*nl_, inputs, values_);
  return values_;
}

void NodeWalkEvaluator::run_outputs(std::span<const Trit> inputs, Word& out) {
  run(inputs);
  const auto& outs = nl_->outputs();
  if (out.size() != outs.size()) out = Word(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    out[i] = values_[outs[i].node];
  }
}

}  // namespace mcsn
