#include "mcsn/netlist/vcd.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace mcsn {

namespace {

char vcd_char(Trit t) {
  switch (t) {
    case Trit::zero: return '0';
    case Trit::one: return '1';
    default: return 'x';
  }
}

std::string vcd_id(std::size_t i) {
  // Printable short identifiers: base-94 over '!'..'~'.
  std::string s;
  do {
    s.push_back(static_cast<char>('!' + (i % 94)));
    i /= 94;
  } while (i != 0);
  return s;
}

}  // namespace

void write_vcd(std::ostream& os, const Netlist& nl,
               const EventSimulator& sim) {
  struct Signal {
    NodeId node;
    std::string name;
    std::string id;
  };
  std::vector<Signal> sigs;
  for (std::size_t i = 0; i < nl.inputs().size(); ++i) {
    sigs.push_back(Signal{nl.inputs()[i], nl.input_name(i), ""});
  }
  for (const OutputPort& o : nl.outputs()) {
    sigs.push_back(Signal{o.node, o.name, ""});
  }
  for (std::size_t i = 0; i < sigs.size(); ++i) sigs[i].id = vcd_id(i);

  os << "$timescale 1ps $end\n$scope module "
     << (nl.name().empty() ? "netlist" : nl.name()) << " $end\n";
  for (const Signal& s : sigs) {
    os << "$var wire 1 " << s.id << " " << s.name << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";

  // Merge events by time.
  std::map<double, std::vector<std::pair<std::string, Trit>>> timeline;
  for (const Signal& s : sigs) {
    for (const WaveEvent& e : sim.waveform(s.node)) {
      timeline[e.time].push_back({s.id, e.value});
    }
  }
  for (const auto& [time, changes] : timeline) {
    os << "#" << static_cast<long long>(time + 0.5) << "\n";
    for (const auto& [id, v] : changes) os << vcd_char(v) << id << "\n";
  }
}

}  // namespace mcsn
