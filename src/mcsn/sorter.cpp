#include "mcsn/sorter.hpp"

#include <stdexcept>

namespace mcsn {

namespace {

int checked_shape(int channels, std::size_t bits) {
  if (channels < 1 || bits < 1) {
    throw std::invalid_argument("McSorter: channels and bits must be >= 1");
  }
  return channels;
}

BuiltNetwork build_or_throw(int channels, std::size_t bits,
                            const McSorterOptions& opt) {
  checked_shape(channels, bits);
  StatusOr<BuiltNetwork> built = NetworkBuilder(builder_options(opt))
                                     .build(channels);
  if (!built.ok()) {
    throw std::invalid_argument("McSorter: " + built.status().to_string());
  }
  return std::move(*built);
}

Sort2Options effective_sort2(const McSorterOptions& opt,
                             PpcTopology suggested) {
  Sort2Options sort2 = opt.sort2;
  // smallest_depth is a whole-stack promise: the comparator network *and*
  // the 2-sort's internal prefix tree go depth-minimal.
  if (opt.policy == BuildPolicy::smallest_depth) sort2.topology = suggested;
  return sort2;
}

}  // namespace

NetworkBuilderOptions builder_options(const McSorterOptions& opt) noexcept {
  return NetworkBuilderOptions{opt.policy, opt.prefer_depth, opt.max_channels};
}

McSorter::McSorter(int channels, std::size_t bits, const McSorterOptions& opt)
    : McSorter(build_or_throw(channels, bits, opt), bits, opt) {}

McSorter::McSorter(BuiltNetwork built, std::size_t bits,
                   const McSorterOptions& opt)
    : channels_(checked_shape(built.network.channels(), bits)),
      bits_(bits),
      network_(std::move(built.network)),
      netlist_(elaborate_network(
          network_, bits,
          sort2_builder(effective_sort2(opt, built.sort2_topology)))),
      batch_(netlist_, opt.batch) {}

CircuitStats McSorter::stats() const { return compute_stats(netlist_); }

Status McSorter::sort_batch_flat(std::span<const Trit> in,
                                 std::span<Trit> out) const {
  const std::size_t round_trits = static_cast<std::size_t>(channels_) * bits_;
  if (round_trits == 0 || in.size() % round_trits != 0) {
    return Status::invalid_argument(
        "flat payload of " + std::to_string(in.size()) +
        " trits is not a whole number of " + std::to_string(channels_) + "x" +
        std::to_string(bits_) + " rounds");
  }
  if (out.size() != in.size()) {
    return Status::invalid_argument(
        "output buffer of " + std::to_string(out.size()) +
        " trits does not match input of " + std::to_string(in.size()));
  }
  batch_.run_flat(in, out);
  return Status();
}

SortResponse McSorter::sort_request(const SortRequest& request) const {
  SortResponse response;
  response.shape = request.shape;
  response.values_requested = request.values_requested;
  if (Status s = request.validate(); !s.ok()) {
    response.status = std::move(s);
    return response;
  }
  if (request.shape != shape()) {
    response.status = Status::invalid_argument(
        "request shape " + std::to_string(request.shape.channels) + "x" +
        std::to_string(request.shape.bits) + " does not match sorter " +
        std::to_string(channels_) + "x" + std::to_string(bits_));
    return response;
  }
  response.payload.resize(request.payload.size());
  response.status = sort_batch_flat(request.payload, response.payload);
  if (!response.status.ok()) response.payload.clear();
  return response;
}

}  // namespace mcsn
