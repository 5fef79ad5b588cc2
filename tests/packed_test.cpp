// Unit tests for the 64-lane dual-rail packed representation: every packed
// operator must agree with the scalar Kleene operator on every lane.

#include "mcsn/core/packed.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <vector>

namespace mcsn {
namespace {

TEST(Packed, SplatAndLane) {
  for (const Trit t : kAllTrits) {
    const PackedTrit p = PackedTrit::splat(t);
    for (int lane = 0; lane < 64; ++lane) {
      EXPECT_EQ(p.lane(lane), t);
    }
  }
}

TEST(Packed, SetLaneRoundTrip) {
  PackedTrit p = PackedTrit::splat(Trit::zero);
  p.set_lane(3, Trit::meta);
  p.set_lane(17, Trit::one);
  EXPECT_EQ(p.lane(3), Trit::meta);
  EXPECT_EQ(p.lane(17), Trit::one);
  EXPECT_EQ(p.lane(0), Trit::zero);
  p.set_lane(3, Trit::zero);
  EXPECT_EQ(p.lane(3), Trit::zero);
}

// Lay all 9 input combinations across lanes and compare with scalar ops.
TEST(Packed, BinaryOpsMatchScalarOnAllLanes) {
  PackedTrit a = PackedTrit::splat(Trit::zero);
  PackedTrit b = PackedTrit::splat(Trit::zero);
  int lane = 0;
  for (const Trit x : kAllTrits) {
    for (const Trit y : kAllTrits) {
      a.set_lane(lane, x);
      b.set_lane(lane, y);
      ++lane;
    }
  }
  const PackedTrit pa = packed_and(a, b);
  const PackedTrit po = packed_or(a, b);
  const PackedTrit px = packed_xor(a, b);
  const PackedTrit pn = packed_not(a);
  lane = 0;
  for (const Trit x : kAllTrits) {
    for (const Trit y : kAllTrits) {
      EXPECT_EQ(pa.lane(lane), trit_and(x, y)) << lane;
      EXPECT_EQ(po.lane(lane), trit_or(x, y)) << lane;
      EXPECT_EQ(px.lane(lane), trit_xor(x, y)) << lane;
      EXPECT_EQ(pn.lane(lane), trit_not(x)) << lane;
      ++lane;
    }
  }
}

TEST(Packed, MuxMatchesScalarOnAllCombos) {
  PackedTrit d0 = PackedTrit::splat(Trit::zero);
  PackedTrit d1 = PackedTrit::splat(Trit::zero);
  PackedTrit s = PackedTrit::splat(Trit::zero);
  int lane = 0;
  std::vector<std::array<Trit, 3>> combos;
  for (const Trit x : kAllTrits) {
    for (const Trit y : kAllTrits) {
      for (const Trit z : kAllTrits) {
        combos.push_back({x, y, z});
      }
    }
  }
  ASSERT_LE(combos.size(), 64u);
  for (const auto& c : combos) {
    d0.set_lane(lane, c[0]);
    d1.set_lane(lane, c[1]);
    s.set_lane(lane, c[2]);
    ++lane;
  }
  const PackedTrit out = packed_mux(d0, d1, s);
  lane = 0;
  for (const auto& c : combos) {
    EXPECT_EQ(out.lane(lane), trit_mux(c[0], c[1], c[2])) << lane;
    ++lane;
  }
}

// The blocked transposes against per-lane access, at widths and row
// counts that are not multiples of the 8 x 8 blocks or of 64.
TEST(Packed, PackAndUnpackLanesMatchPerLaneAccess) {
  for (const std::size_t width : {1u, 3u, 8u, 9u, 17u}) {
    for (const std::size_t rounds : {0u, 1u, 7u, 8u, 63u, 64u, 65u, 200u,
                                     256u}) {
      std::vector<Trit> rows(rounds * width);
      for (std::size_t k = 0; k < rows.size(); ++k) {
        rows[k] = kAllTrits[(k * 7 + k / 5) % 3];
      }
      std::vector<PackedTrit256> lanes(width, PackedTrit256::splat(Trit::meta));
      pack_lanes<4>(rows, width, std::span<PackedTrit256>(lanes));
      for (std::size_t c = 0; c < width; ++c) {
        for (int r = 0; r < PackedTrit256::kLanes; ++r) {
          const Trit want = static_cast<std::size_t>(r) < rounds
                                ? rows[static_cast<std::size_t>(r) * width + c]
                                : Trit::zero;
          ASSERT_EQ(lanes[c].lane(r), want)
              << "width " << width << " rounds " << rounds << " c " << c
              << " r " << r;
        }
      }
      // Unpack writes exactly the rows asked for.
      std::vector<Trit> back(rows.size() + width, Trit::meta);
      unpack_lanes<4>([&lanes](std::size_t c) { return lanes[c]; }, width,
                      std::span<Trit>(back).first(rows.size()));
      for (std::size_t k = 0; k < back.size(); ++k) {
        ASSERT_EQ(back[k], k < rows.size() ? rows[k] : Trit::meta)
            << "width " << width << " rounds " << rounds << " k " << k;
      }
    }
  }
}

}  // namespace
}  // namespace mcsn
