#pragma once
// Structural Verilog export, mirroring the paper's design flow: the MC
// circuits must be instantiated as hand-mapped standard cells (INV_X1,
// AND2_X1, OR2_X1, ...) with synthesis optimization disabled, because
// Boolean resynthesis can destroy metastability-containment. The writer
// therefore emits one cell instance per gate — no behavioral constructs.

#include <iosfwd>

#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// Writes a synthesizable structural module. Port names are sanitized
/// ("g[3]" -> "g_3"). Cell pin conventions follow NanGate 45 nm
/// (A/A1/A2/.., ZN for inverting cells, Z otherwise).
void write_verilog(std::ostream& os, const Netlist& nl);

}  // namespace mcsn
