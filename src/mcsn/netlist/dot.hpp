#pragma once
// Graphviz export for netlists (debugging and documentation figures).

#include <iosfwd>

#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// Writes a `digraph` with inputs as diamonds, gates as boxes labeled with
/// the cell name, and outputs as double circles.
void write_dot(std::ostream& os, const Netlist& nl);

}  // namespace mcsn
