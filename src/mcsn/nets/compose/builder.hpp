#pragma once
// NetworkBuilder — the one entry point for "give me an MC sorting network
// for n channels". n <= 10 serves the depth-optimal catalog network; larger
// n serves the smallest (size, then depth) of the recursive odd-even
// composition and the two PPC constructions (compose.hpp). Unsupported or
// invalid shapes come back through StatusOr instead of exceptions — so the
// serve path can turn them into proper wire-visible error frames.

#include "mcsn/api/status.hpp"
#include "mcsn/nets/network.hpp"

namespace mcsn {

struct BuiltNetwork {
  ComparatorNetwork network;
};

struct NetworkBuilderOptions {
  /// Shapes above this come back kUnimplemented instead of compiling a
  /// program with millions of gates on the serve path. Raise deliberately.
  int max_channels = 4096;
};

class NetworkBuilder {
 public:
  explicit NetworkBuilder(NetworkBuilderOptions opt = {}) : opt_(opt) {}

  /// A verified-construction network for `channels`, or:
  ///   kInvalidArgument — channels < 1
  ///   kUnimplemented   — channels > max_channels
  [[nodiscard]] StatusOr<BuiltNetwork> build(int channels) const;

 private:
  NetworkBuilderOptions opt_;
};

}  // namespace mcsn
