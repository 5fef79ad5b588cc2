#pragma once
// Minimal VCD (value change dump) writer for EventSimulator waveforms;
// metastable M is emitted as the VCD unknown value 'x'.

#include <iosfwd>

#include "mcsn/netlist/eventsim.hpp"
#include "mcsn/netlist/netlist.hpp"

namespace mcsn {

/// Dumps the waveforms of all primary inputs and outputs (1 ps timescale).
void write_vcd(std::ostream& os, const Netlist& nl, const EventSimulator& sim);

}  // namespace mcsn
