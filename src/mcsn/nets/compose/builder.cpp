#include "mcsn/nets/compose/builder.hpp"

#include <string>
#include <utility>

#include "mcsn/nets/compose/compose.hpp"

namespace mcsn {

StatusOr<BuiltNetwork> NetworkBuilder::build(int channels) const {
  if (channels < 1) {
    return Status::invalid_argument(
        "NetworkBuilder: channels must be >= 1 (got " +
        std::to_string(channels) + ")");
  }
  if (channels > opt_.max_channels) {
    return Status::unimplemented(
        "NetworkBuilder: " + std::to_string(channels) +
        " channels exceeds the configured construction bound of " +
        std::to_string(opt_.max_channels) +
        " (raise max_channels to serve this shape)");
  }
  // n <= 10: the catalog network, optimal in both measures except at
  // n = 10, where the depth-optimal one is served.
  if (channels <= 10) return BuiltNetwork{composed_sort_network(channels)};

  // Composite n: the fewest comparators, ties broken by depth. serial is
  // excluded (quadratic size, reference only); kogge_stone/han_carlson
  // cones are unrealizable.
  ComparatorNetwork best = composed_sort_network(channels);
  for (const PpcTopology topo :
       {PpcTopology::ladner_fischer, PpcTopology::sklansky}) {
    ComparatorNetwork net = ppc_sort_network(channels, topo);
    if (std::pair{net.size(), net.depth()} <
        std::pair{best.size(), best.depth()}) {
      best = std::move(net);
    }
  }
  return BuiltNetwork{std::move(best)};
}

}  // namespace mcsn
