#pragma once
// Structural Verilog reader for the subset this library emits (and any
// equivalent hand-written netlist): module header, input/output/wire
// declarations, constant wire assignments (1'b0 / 1'b1), NanGate-style cell
// instances with named pin connections, and output `assign`s. Instances may
// appear in any order; the reader topologically sorts them.
//
// Together with write_verilog this gives a round trip: parsing the text
// write_verilog(os, nl) wrote yields nl again (same cells, same function —
// the test suite checks formal ternary equivalence).

#include <optional>
#include <string>
#include <string_view>

#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

struct VerilogError {
  std::size_t line = 0;
  std::string message;
};

[[nodiscard]] std::optional<Netlist> parse_verilog(
    std::string_view text, VerilogError* error = nullptr);

}  // namespace mcsn
