#include "mcsn/netlist/dot.hpp"

#include <ostream>

namespace mcsn {

void write_dot(std::ostream& os, const Netlist& nl) {
  os << "digraph \"" << (nl.name().empty() ? "netlist" : nl.name())
     << "\" {\n  rankdir=LR;\n";
  std::size_t next_input = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateNode& g = nl.node(id);
    os << "  n" << id;
    if (g.kind == CellKind::input) {
      os << " [shape=diamond,label=\"" << nl.input_name(next_input++)
         << "\"];\n";
    } else {
      os << " [shape=box,label=\"" << cell_name(g.kind) << "\"];\n";
    }
    for (int pin = 0; pin < cell_arity(g.kind); ++pin) {
      os << "  n" << g.in[pin] << " -> n" << id << ";\n";
    }
  }
  for (std::size_t i = 0; i < nl.outputs().size(); ++i) {
    const OutputPort& o = nl.outputs()[i];
    os << "  o" << i << " [shape=doublecircle,label=\"" << o.name << "\"];\n";
    os << "  n" << o.node << " -> o" << i << ";\n";
  }
  os << "}\n";
}

}  // namespace mcsn
