#pragma once
// Test helper: a SocketServer's counters, read from the registry series
// its event loops record into (socket_<name>_total{loop="<index>"}).

#include <cstddef>
#include <cstdint>
#include <string>

#include "mcsn/serve/net/socket_server.hpp"
#include "mcsn/serve/service.hpp"

namespace mcsn {

/// socket_<name>_total of event loop `loop`.
inline std::uint64_t socket_loop_counter(const SortService& service,
                                         const std::string& name,
                                         std::size_t loop) {
  return service.registry()
      .counter("socket_" + name + "_total", {{"loop", std::to_string(loop)}})
      .value();
}

/// socket_<name>_total summed over every event loop of `server`.
inline std::uint64_t socket_counter(const SortService& service,
                                    const net::SocketServer& server,
                                    const std::string& name) {
  std::uint64_t sum = 0;
  for (std::size_t l = 0; l < server.loop_count(); ++l) {
    sum += socket_loop_counter(service, name, l);
  }
  return sum;
}

}  // namespace mcsn
