// Quickstart: build the paper's metastability-containing 2-sort(8), feed it
// two Gray-coded measurements — one of them marginal (containing an M bit) —
// and show that the circuit sorts them without amplifying the uncertainty.
//
//   $ ./quickstart

#include <iostream>

#include "mcsn/mcsn.hpp"

int main() {
  using namespace mcsn;

  constexpr std::size_t kBits = 8;

  // 1. Build the circuit (Fig. 5 of the paper): Ladner-Fischer parallel
  //    prefix over the ^⋄M operator, plus one outM block per bit.
  const Netlist circuit = make_sort2(kBits);
  const CircuitStats stats = compute_stats(circuit);
  std::cout << "Circuit: " << stats << "\n\n";

  // 2. Two measurements. g is a clean reading of value 100. h was sampled
  //    while crossing between 100 and 101, so one bit is metastable: h is
  //    the superposition rg(100) * rg(101).
  const Word g = gray_encode(100, kBits);
  Word h = gray_encode(100, kBits);
  h[gray_flip_index(100, kBits)] = Trit::meta;

  std::cout << "g = " << g << "  (rg(100))\n";
  std::cout << "h = " << h << "  (rg(100) * rg(101), one metastable bit)\n\n";

  // 3. Simulate with worst-case metastability semantics.
  const Word out = evaluate(circuit, g + h);
  const Word max = out.sub(0, kBits - 1);
  const Word min = out.sub(kBits, 2 * kBits - 1);

  std::cout << "max = " << max << "  (rank " << *valid_rank(max) << ")\n";
  std::cout << "min = " << min << "  (rank " << *valid_rank(min) << ")\n\n";

  // 4. The guarantee: outputs match the metastable closure of max/min, i.e.
  //    the M was neither duplicated nor spread: min is exactly 100, max is
  //    still "between 100 and 101".
  const auto [smax, smin] = sort2_spec_rank(g, h);
  std::cout << "spec says max = " << smax << ", min = " << smin << " -> "
            << (max == smax && min == smin ? "MATCH" : "MISMATCH") << "\n";

  // 5. If the metastable bit later resolves, the already-computed outputs
  //    resolve consistently (refinement monotonicity).
  for (const Trit r : {Trit::zero, Trit::one}) {
    Word hr = h;
    hr[*h.first_meta()] = r;
    const Word out_r = evaluate(circuit, g + hr);
    std::cout << "if the M resolves to " << r << ": max,min = "
              << out_r.sub(0, kBits - 1) << ","
              << out_r.sub(kBits, 2 * kBits - 1)
              << "  (refines the metastable answer: "
              << (out.matches_resolution(out_r) ? "yes" : "NO") << ")\n";
  }

  // 6. Production-scale use: the McSorter facade sorts whole measurement
  //    batches through the compiled 256-lane engine in one call. Five
  //    Gray-encoded rounds travel as one flat batch request and come back
  //    decoded to integers.
  const McSorter sorter(10, kBits);  // 10 channels, 8 bits
  constexpr std::size_t kRounds = 5;
  std::vector<Trit> flat;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    for (std::uint64_t c = 0; c < 10; ++c) {
      const Word w = gray_encode((r * 37 + c * 91) % 200, kBits);
      flat.insert(flat.end(), w.begin(), w.end());
    }
  }
  const StatusOr<std::vector<std::uint64_t>> sorted =
      sorter
          .sort_request(*SortRequest::own_batch(sorter.shape(), kRounds,
                                                std::move(flat)))
          .values();
  if (!sorted.ok()) {
    std::cerr << "batch sort failed: " << sorted.status().to_string() << "\n";
    return 1;
  }
  std::cout << "\nBatch-sorted " << kRounds << " ten-channel rounds; round 0:";
  for (std::size_t c = 0; c < 10; ++c) std::cout << " " << (*sorted)[c];
  std::cout << "\n";

  // 7. For streaming traffic there is SortService (micro-batching over
  //    this same engine), and for network clients a TCP front-end — see
  //    examples/net_client.cpp against `tool_sortd --listen`.
  return 0;
}
