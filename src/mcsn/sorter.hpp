#pragma once
// High-level facade: an n-channel, B-bit metastability-containing sorter.
//
// Wraps network construction (NetworkBuilder: the optimal catalog up to 10
// channels, the smallest composition beyond), elaboration, evaluation and
// containment accounting behind a movable class, so downstream users can
// sort rounds of (possibly marginal) Gray code measurements in a few lines:
//
//   McSorter sorter(10, 8);                       // 10 channels, 8 bits
//   SortResponse rsp = sorter.sort_request(
//       *SortRequest::from_values(sorter.shape(), values));
//   std::vector<std::uint64_t> sorted = *rsp.values();
//
// Every member function is const and safe to call concurrently from
// multiple threads: each call runs its own executor over the shared
// compiled program. Single-vector scalar evaluation of netlist() is
// available through NodeWalkEvaluator (netlist/eval.hpp).

#include <span>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/nets/elaborate.hpp"
#include "mcsn/netlist/compile.hpp"
#include "mcsn/netlist/stats.hpp"

namespace mcsn {

struct McSorterOptions {
  /// Channel bound forwarded to NetworkBuilder: construction beyond this
  /// is refused (kUnimplemented through the pool, std::invalid_argument
  /// from the constructor) instead of compiling unboundedly large
  /// programs on demand.
  int max_channels = 4096;
  /// The 2-sort elaborated at every comparator; PpcTopology::sklansky is
  /// the depth-minimal prefix cone (arXiv 1911.00267).
  Sort2Options sort2;
  /// Engine thread count used by sort_batch_flat.
  BatchOptions batch;
};

/// The NetworkBuilder configuration McSorter derives from its options —
/// exposed so SorterPool can pre-run construction and report failures as
/// Status values instead of catching constructor exceptions.
[[nodiscard]] NetworkBuilderOptions builder_options(
    const McSorterOptions& opt) noexcept;

class McSorter {
 public:
  McSorter(int channels, std::size_t bits, const McSorterOptions& opt = {});

  /// Constructs from an already-built network (see NetworkBuilder) —
  /// skips re-running construction when the caller has validated the
  /// shape, e.g. the serving pool's Status-based path.
  McSorter(BuiltNetwork built, std::size_t bits,
           const McSorterOptions& opt = {});

  // Move-only, like the BatchEvaluator it owns; pools and containers hold
  // sorters by value.
  McSorter(McSorter&&) noexcept = default;
  McSorter& operator=(McSorter&&) noexcept = default;

  [[nodiscard]] int channels() const noexcept { return channels_; }
  [[nodiscard]] std::size_t bits() const noexcept { return bits_; }
  [[nodiscard]] const Netlist& netlist() const noexcept { return netlist_; }
  [[nodiscard]] const ComparatorNetwork& network() const noexcept {
    return network_;
  }

  /// Gate-level report under the default (paper-calibrated) library.
  [[nodiscard]] CircuitStats stats() const;

  [[nodiscard]] SortShape shape() const noexcept {
    return SortShape{channels_, bits_};
  }

  /// Sorts N rounds given as one flat contiguous buffer: `in` holds
  /// N x channels() x bits() trits (round-major, channel-major within a
  /// round) and the sorted rounds are written to `out` in the same layout.
  /// This is the zero-copy path the compiled engine consumes directly — no
  /// per-round repacking. Returns kInvalidArgument (and writes nothing) if
  /// in.size() is not a multiple of the round size or out.size() differs.
  [[nodiscard]] Status sort_batch_flat(std::span<const Trit> in,
                                       std::span<Trit> out) const;

  /// Sorts one SortRequest through the flat path. The response carries
  /// kInvalidArgument (never throws) when the request is malformed or its
  /// shape differs from this sorter's.
  [[nodiscard]] SortResponse sort_request(const SortRequest& request) const;

 private:
  int channels_;
  std::size_t bits_;
  ComparatorNetwork network_;
  Netlist netlist_;
  BatchEvaluator batch_;
};

}  // namespace mcsn
