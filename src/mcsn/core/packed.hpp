#pragma once
// Packed dual-rail representation of 64 independent ternary values.
//
// Each lane (bit position) of a PackedTrit carries one ternary value encoded
// on two rails:
//   can0 bit set  -> the value can resolve to 0
//   can1 bit set  -> the value can resolve to 1
// 0 = (1,0), 1 = (0,1), M = (1,1). (0,0) is invalid and never produced.
//
// Kleene gate semantics become plain bitwise ops, giving 64-way parallel
// netlist evaluation for property sweeps and throughput benchmarks.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "mcsn/core/trit.hpp"

namespace mcsn {

struct PackedTrit {
  std::uint64_t can0 = ~std::uint64_t{0};  // default: all lanes 0
  std::uint64_t can1 = 0;

  friend bool operator==(const PackedTrit&, const PackedTrit&) = default;

  /// All 64 lanes set to the same value.
  [[nodiscard]] static constexpr PackedTrit splat(Trit t) noexcept {
    switch (t) {
      case Trit::zero: return {~std::uint64_t{0}, 0};
      case Trit::one: return {0, ~std::uint64_t{0}};
      default: return {~std::uint64_t{0}, ~std::uint64_t{0}};
    }
  }

  /// Reads one lane back as a Trit.
  [[nodiscard]] constexpr Trit lane(int i) const noexcept {
    const bool c0 = ((can0 >> i) & 1u) != 0;
    const bool c1 = ((can1 >> i) & 1u) != 0;
    if (c0 && c1) return Trit::meta;
    return c1 ? Trit::one : Trit::zero;
  }

  /// Writes one lane.
  constexpr void set_lane(int i, Trit t) noexcept {
    const std::uint64_t bit = std::uint64_t{1} << i;
    can0 &= ~bit;
    can1 &= ~bit;
    if (t != Trit::one) can0 |= bit;
    if (t != Trit::zero) can1 |= bit;
  }
};

// An AND output can be 1 only if both inputs can be 1; it can be 0 if either
// input can be 0. OR dually; NOT swaps rails. These are exactly the closure
// (Kleene) semantics of Table 3, lane-parallel.

[[nodiscard]] constexpr PackedTrit packed_and(PackedTrit a,
                                              PackedTrit b) noexcept {
  return {a.can0 | b.can0, a.can1 & b.can1};
}

[[nodiscard]] constexpr PackedTrit packed_or(PackedTrit a,
                                             PackedTrit b) noexcept {
  return {a.can0 & b.can0, a.can1 | b.can1};
}

[[nodiscard]] constexpr PackedTrit packed_not(PackedTrit a) noexcept {
  return {a.can1, a.can0};
}

[[nodiscard]] constexpr PackedTrit packed_xor(PackedTrit a,
                                              PackedTrit b) noexcept {
  // can be 0: (a can0 & b can0) | (a can1 & b can1); can be 1 dually.
  return {(a.can0 & b.can0) | (a.can1 & b.can1),
          (a.can0 & b.can1) | (a.can1 & b.can0)};
}

/// Closure of mux(d0, d1, s) = s ? d1 : d0, lane-parallel.
[[nodiscard]] constexpr PackedTrit packed_mux(PackedTrit d0, PackedTrit d1,
                                              PackedTrit s) noexcept {
  return {(s.can0 & d0.can0) | (s.can1 & d1.can0),
          (s.can0 & d0.can1) | (s.can1 & d1.can1)};
}

// --- Multi-word wide packing ------------------------------------------------
//
// WidePackedTrit<W> glues W 64-lane words into one 64*W-lane value. The
// per-word rail ops are independent, so the loops below auto-vectorize; with
// W = 4 (256 lanes) one gate evaluation becomes two 256-bit bitwise ops per
// rail on AVX2-class hardware.

template <int W>
struct WidePackedTrit {
  static_assert(W >= 1, "WidePackedTrit needs at least one word");
  static constexpr int kLanes = 64 * W;

  std::array<PackedTrit, W> word{};  // default: all lanes 0

  friend bool operator==(const WidePackedTrit&,
                         const WidePackedTrit&) = default;

  /// All kLanes lanes set to the same value.
  [[nodiscard]] static constexpr WidePackedTrit splat(Trit t) noexcept {
    WidePackedTrit r;
    for (auto& w : r.word) w = PackedTrit::splat(t);
    return r;
  }

  /// Reads lane i in [0, kLanes).
  [[nodiscard]] constexpr Trit lane(int i) const noexcept {
    return word[static_cast<std::size_t>(i / 64)].lane(i % 64);
  }

  /// Writes lane i in [0, kLanes).
  constexpr void set_lane(int i, Trit t) noexcept {
    word[static_cast<std::size_t>(i / 64)].set_lane(i % 64, t);
  }
};

/// 256-lane packed value — the widest backend shipped by default.
using PackedTrit256 = WidePackedTrit<4>;

template <int W>
[[nodiscard]] constexpr WidePackedTrit<W> wide_and(
    const WidePackedTrit<W>& a, const WidePackedTrit<W>& b) noexcept {
  WidePackedTrit<W> r;
  for (int w = 0; w < W; ++w) r.word[w] = packed_and(a.word[w], b.word[w]);
  return r;
}

template <int W>
[[nodiscard]] constexpr WidePackedTrit<W> wide_or(
    const WidePackedTrit<W>& a, const WidePackedTrit<W>& b) noexcept {
  WidePackedTrit<W> r;
  for (int w = 0; w < W; ++w) r.word[w] = packed_or(a.word[w], b.word[w]);
  return r;
}

template <int W>
[[nodiscard]] constexpr WidePackedTrit<W> wide_not(
    const WidePackedTrit<W>& a) noexcept {
  WidePackedTrit<W> r;
  for (int w = 0; w < W; ++w) r.word[w] = packed_not(a.word[w]);
  return r;
}

template <int W>
[[nodiscard]] constexpr WidePackedTrit<W> wide_xor(
    const WidePackedTrit<W>& a, const WidePackedTrit<W>& b) noexcept {
  WidePackedTrit<W> r;
  for (int w = 0; w < W; ++w) r.word[w] = packed_xor(a.word[w], b.word[w]);
  return r;
}

template <int W>
[[nodiscard]] constexpr WidePackedTrit<W> wide_mux(
    const WidePackedTrit<W>& d0, const WidePackedTrit<W>& d1,
    const WidePackedTrit<W>& s) noexcept {
  WidePackedTrit<W> r;
  for (int w = 0; w < W; ++w) {
    r.word[w] = packed_mux(d0.word[w], d1.word[w], s.word[w]);
  }
  return r;
}

// --- Round-major trits <-> lanes ------------------------------------------
//
// pack_lanes / unpack_lanes convert between `rounds` rows of `width` Trit
// bytes (row r at rows[r * width], the flat batch layout) and `width`
// wide values whose lane r carries row r. Both work on blocks of 8 rows x
// 8 columns. A Trit byte is 0, 1 or 2, i.e. two bits, so the even rows of
// a block are shift-or'ed into one word and the odd rows into another,
// four 2-bit fields per byte; masking the two words into their even and
// odd bit positions leaves one word per rail whose byte c holds column
// c's 8 rail bits in row order. Eight such words (64 rows) are then
// byte-transposed into one rail word per column. Unpack runs the same
// steps backwards. Portable C++: no intrinsics, any byte order.

namespace packed_detail {

inline constexpr std::uint64_t kEvenBits = 0x5555555555555555u;
inline constexpr std::uint64_t kOddBits = ~kEvenBits;
inline constexpr std::uint64_t kLowPairs = 0x0303030303030303u;

/// Byte j of the result is p[j] for j < n, zero above.
inline std::uint64_t load_bytes(const Trit* p, std::size_t n) noexcept {
  std::uint64_t v = 0;
  if (n == 8 && std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
    return v;
  }
  for (std::size_t j = 0; j < n; ++j) {
    v |= std::uint64_t{static_cast<std::uint8_t>(p[j])} << (8 * j);
  }
  return v;
}

/// p[j] = byte j of v for j < n.
inline void store_bytes(Trit* p, std::size_t n, std::uint64_t v) noexcept {
  if (n == 8 && std::endian::native == std::endian::little) {
    std::memcpy(p, &v, 8);
    return;
  }
  for (std::size_t j = 0; j < n; ++j) {
    p[j] = static_cast<Trit>((v >> (8 * j)) & 0xffu);
  }
}

/// Swaps the bits of `lo` at (mask << shift) with the bits of `hi` at mask.
inline void swap_bits(std::uint64_t& lo, std::uint64_t& hi, int shift,
                      std::uint64_t mask) noexcept {
  const std::uint64_t t = ((lo >> shift) ^ hi) & mask;
  lo ^= t << shift;
  hi ^= t;
}

/// Transposes the 8x8 byte matrix whose row i is a[i] (column j = byte j):
/// afterwards byte j of a[i] is what byte i of a[j] was. Swaps 4x4, then
/// 2x2, then 1x1 blocks.
inline void transpose_bytes8(std::array<std::uint64_t, 8>& a) noexcept {
  for (std::size_t i = 0; i < 4; ++i) {
    swap_bits(a[i], a[i + 4], 32, 0x00000000ffffffffu);
  }
  for (const std::size_t i : {0u, 1u, 4u, 5u}) {
    swap_bits(a[i], a[i + 2], 16, 0x0000ffff0000ffffu);
  }
  for (const std::size_t i : {0u, 2u, 4u, 6u}) {
    swap_bits(a[i], a[i + 1], 8, 0x00ff00ff00ff00ffu);
  }
}

/// One 64-row x 8-column block of pack_lanes: bit0[b] / can1[b] get, in
/// byte c, column c's bits for rows 8b .. 8b + 7 (bit r = row 8b + r).
/// `load(row)` returns the row's column bytes; rows at or past `rows`
/// are not loaded and read as zeros.
template <class Load>
void gather_rails(Load&& load, std::size_t rows,
                  std::array<std::uint64_t, 8>& bit0,
                  std::array<std::uint64_t, 8>& can1) noexcept {
  for (std::size_t b = 0; b < 8 && 8 * b < rows; ++b) {
    std::uint64_t even = 0;  // rows 8b, 8b + 2, ... as 2-bit fields
    std::uint64_t odd = 0;   // rows 8b + 1, 8b + 3, ...
    for (std::size_t k = 0; k < 4; ++k) {
      // Each byte cut to two bits, so a byte outside 0..2 cannot spill
      // into its neighbours.
      even |= (load(8 * b + 2 * k) & kLowPairs) << (2 * k);
      odd |= (load(8 * b + 2 * k + 1) & kLowPairs) << (2 * k);
    }
    // zero = 0, one = 1, meta = 2: bit 0 marks one, and a value can be 1
    // unless it is zero.
    bit0[b] = (even & kEvenBits) | ((odd & kEvenBits) << 1);
    can1[b] = ((even | even >> 1) & kEvenBits) |
              (((odd | odd >> 1) & kEvenBits) << 1);
  }
}

/// The inverse of gather_rails for one block: `store(row, bytes)` gets
/// rows 0 .. rows - 1 (at most 64) of one[b] / meta[b], byte c holding
/// column c's Trit.
template <class Store>
void scatter_rails(Store&& store, std::size_t rows,
                   const std::array<std::uint64_t, 8>& one,
                   const std::array<std::uint64_t, 8>& meta) noexcept {
  for (std::size_t b = 0; b < 8 && 8 * b < rows; ++b) {
    // Trit bytes of the even rows as 2-bit fields (row 8b + 2k at bits
    // 2k, 2k + 1 of each byte), and of the odd rows.
    const std::uint64_t even =
        (one[b] & kEvenBits) | ((meta[b] << 1) & kOddBits);
    const std::uint64_t odd =
        ((one[b] >> 1) & kEvenBits) | (meta[b] & kOddBits);
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t row = 8 * b + 2 * k;
      if (row < rows) store(row, (even >> (2 * k)) & kLowPairs);
      if (row + 1 < rows) store(row + 1, (odd >> (2 * k)) & kLowPairs);
    }
  }
}

}  // namespace packed_detail

/// Lane r of out[c] = rows[r * width + c] for r < rows.size() / width
/// (at most kLanes rows); lanes past the last row are set to 0.
/// Preconditions: out.size() == width, rows.size() a multiple of width.
template <int W>
void pack_lanes(std::span<const Trit> rows, std::size_t width,
                std::span<WidePackedTrit<W>> out) noexcept {
  using namespace packed_detail;
  const std::size_t rounds = width == 0 ? 0 : rows.size() / width;
  for (std::size_t w = 0; w < static_cast<std::size_t>(W); ++w) {
    if (64 * w >= rounds) {
      for (std::size_t c = 0; c < width; ++c) out[c].word[w] = PackedTrit{};
      continue;
    }
    const std::size_t live = std::min<std::size_t>(64, rounds - 64 * w);
    for (std::size_t c0 = 0; c0 < width; c0 += 8) {
      const std::size_t n = std::min<std::size_t>(8, width - c0);
      const Trit* const block = &rows[64 * w * width + c0];
      std::array<std::uint64_t, 8> bit0{};
      std::array<std::uint64_t, 8> can1{};
      if (live == 64 && n == 8) {  // the common full block, unchecked
        gather_rails([&](std::size_t r) {
          return load_bytes(block + r * width, 8);
        }, 64, bit0, can1);
      } else {
        gather_rails([&](std::size_t r) -> std::uint64_t {
          return r < live ? load_bytes(block + r * width, n) : 0;
        }, live, bit0, can1);
      }
      transpose_bytes8(bit0);
      transpose_bytes8(can1);
      for (std::size_t c = 0; c < n; ++c) {
        out[c0 + c].word[w] = PackedTrit{~bit0[c], can1[c]};
      }
    }
  }
}

/// The inverse of pack_lanes: rows[r * width + c] = lane r of
/// value_at(c) for r < rows.size() / width. `value_at(c)` returns the
/// WidePackedTrit<W> of column c (by reference or value).
template <int W, class ValueAt>
void unpack_lanes(ValueAt&& value_at, std::size_t width,
                  std::span<Trit> rows) {
  using namespace packed_detail;
  const std::size_t rounds = width == 0 ? 0 : rows.size() / width;
  for (std::size_t w = 0; w < static_cast<std::size_t>(W); ++w) {
    if (64 * w >= rounds) break;
    const std::size_t live = std::min<std::size_t>(64, rounds - 64 * w);
    for (std::size_t c0 = 0; c0 < width; c0 += 8) {
      const std::size_t n = std::min<std::size_t>(8, width - c0);
      Trit* const block = &rows[64 * w * width + c0];
      std::array<std::uint64_t, 8> one{};
      std::array<std::uint64_t, 8> meta{};
      for (std::size_t c = 0; c < n; ++c) {
        const PackedTrit v = value_at(c0 + c).word[w];
        one[c] = v.can1 & ~v.can0;
        meta[c] = v.can1 & v.can0;
      }
      // one[b] / meta[b]: byte c holds column c0 + c's rows
      // 64w + 8b .. 64w + 8b + 7.
      transpose_bytes8(one);
      transpose_bytes8(meta);
      if (live == 64 && n == 8) {  // the common full block
        scatter_rails([&](std::size_t r, std::uint64_t v) {
          store_bytes(block + r * width, 8, v);
        }, 64, one, meta);
      } else {
        scatter_rails([&](std::size_t r, std::uint64_t v) {
          store_bytes(block + r * width, n, v);
        }, live, one, meta);
      }
    }
  }
}

}  // namespace mcsn
