#include "mcsn/netlist/verilog.hpp"

#include <ostream>
#include <string>
#include <vector>

namespace mcsn {

namespace {

std::string sanitize(const std::string& name) {
  std::string s;
  s.reserve(name.size());
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9') || c == '_') {
      s.push_back(c);
    } else if (c == '[') {
      s.push_back('_');
    }  // ']' and other punctuation dropped
  }
  if (s.empty() || (s[0] >= '0' && s[0] <= '9')) s.insert(s.begin(), 'n');
  return s;
}

// True for cells whose output pin is named ZN (inverting) in NanGate.
bool inverting_output(CellKind k) {
  switch (k) {
    case CellKind::inv:
    case CellKind::nand2:
    case CellKind::nor2:
    case CellKind::xnor2:
    case CellKind::aoi21:
    case CellKind::oai21: return true;
    default: return false;
  }
}

}  // namespace

void write_verilog(std::ostream& os, const Netlist& nl) {
  const std::string module =
      sanitize(nl.name().empty() ? "netlist" : nl.name());

  std::vector<std::string> wire(nl.node_count());
  std::size_t next_input = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).kind == CellKind::input) {
      wire[id] = sanitize(nl.input_name(next_input++));
    } else {
      wire[id] = std::string("n").append(std::to_string(id));
    }
  }

  os << "// Generated by mcsn. Hand-mapped cells; do NOT resynthesize:\n"
     << "// Boolean optimization may destroy metastability-containment.\n"
     << "module " << module << " (";
  bool first = true;
  next_input = 0;
  for (NodeId id : nl.inputs()) {
    os << (first ? "" : ", ") << wire[id];
    first = false;
  }
  for (const OutputPort& o : nl.outputs()) {
    os << (first ? "" : ", ") << sanitize(o.name);
    first = false;
  }
  os << ");\n";
  for (const NodeId id : nl.inputs()) os << "  input " << wire[id] << ";\n";
  for (const OutputPort& o : nl.outputs()) {
    os << "  output " << sanitize(o.name) << ";\n";
  }

  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateNode& g = nl.node(id);
    if (g.kind == CellKind::input) continue;
    if (g.kind == CellKind::const0 || g.kind == CellKind::const1) {
      os << "  wire " << wire[id] << " = 1'b"
         << (g.kind == CellKind::const1 ? 1 : 0) << ";\n";
      continue;
    }
    os << "  wire " << wire[id] << ";\n";
  }

  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const GateNode& g = nl.node(id);
    if (!is_gate(g.kind)) continue;
    const std::string out_pin = inverting_output(g.kind) ? "ZN" : "Z";
    os << "  " << cell_lib_name(g.kind) << " u" << id << " (";
    const int arity = cell_arity(g.kind);
    if (g.kind == CellKind::mux2) {
      // NanGate MUX2_X1: .A (sel=0), .B (sel=1), .S, .Z
      os << ".A(" << wire[g.in[0]] << "), .B(" << wire[g.in[1]] << "), .S("
         << wire[g.in[2]] << ")";
    } else if (arity == 1) {
      os << ".A(" << wire[g.in[0]] << ")";
    } else if (arity == 2) {
      os << ".A1(" << wire[g.in[0]] << "), .A2(" << wire[g.in[1]] << ")";
    } else {
      // AOI/OAI/AO/OA 21 cells: .B1/.B2 the paired inputs, .A the single.
      os << ".B1(" << wire[g.in[0]] << "), .B2(" << wire[g.in[1]] << "), .A("
         << wire[g.in[2]] << ")";
    }
    os << ", ." << out_pin << "(" << wire[id] << "));\n";
  }

  for (const OutputPort& o : nl.outputs()) {
    os << "  assign " << sanitize(o.name) << " = " << wire[o.node] << ";\n";
  }
  os << "endmodule\n";
}

}  // namespace mcsn
