// Tests of the Z-order (Morton) curve utilities, including the locality
// property behind Observation 1.
#include "spatial/zorder.hpp"

#include <gtest/gtest.h>

#include <set>

namespace scm {
namespace {

TEST(ZOrder, FirstFourFollowPaperOrder) {
  // Top two quadrant cells left to right, then the bottom two.
  EXPECT_EQ(zorder_decode(0), (Offset2D{0, 0}));
  EXPECT_EQ(zorder_decode(1), (Offset2D{0, 1}));
  EXPECT_EQ(zorder_decode(2), (Offset2D{1, 0}));
  EXPECT_EQ(zorder_decode(3), (Offset2D{1, 1}));
}

TEST(ZOrder, EncodeDecodeRoundTrip) {
  for (index_t z = 0; z < 4096; ++z) {
    const Offset2D off = zorder_decode(z);
    EXPECT_EQ(zorder_encode(off.row, off.col), z);
  }
  for (index_t r = 0; r < 64; ++r) {
    for (index_t c = 0; c < 64; ++c) {
      const Offset2D off = zorder_decode(zorder_encode(r, c));
      EXPECT_EQ(off.row, r);
      EXPECT_EQ(off.col, c);
    }
  }
}

TEST(ZOrder, LargeCoordinatesRoundTrip) {
  const index_t big = (index_t{1} << 30) + 12345;
  const index_t z = zorder_encode(big, big - 77);
  const Offset2D off = zorder_decode(z);
  EXPECT_EQ(off.row, big);
  EXPECT_EQ(off.col, big - 77);
}

// Bit-at-a-time reference implementations, cross-checked against the
// shift-and-mask production encode/decode.
index_t reference_encode(index_t row, index_t col) {
  index_t z = 0;
  for (int bit = 0; bit < 31; ++bit) {
    z |= ((col >> bit) & 1) << (2 * bit);
    z |= ((row >> bit) & 1) << (2 * bit + 1);
  }
  return z;
}

Offset2D reference_decode(index_t z) {
  Offset2D off{};
  for (int bit = 0; bit < 31; ++bit) {
    off.col |= ((z >> (2 * bit)) & 1) << bit;
    off.row |= ((z >> (2 * bit + 1)) & 1) << bit;
  }
  return off;
}

TEST(ZOrder, ShiftMaskMatchesBitReference) {
  // Dense small range plus sparse strides reaching every byte of the code.
  for (index_t z = 0; z < 1 << 16; ++z) {
    EXPECT_EQ(zorder_decode(z), reference_decode(z)) << "z=" << z;
  }
  for (index_t r = 0; r < 256; ++r) {
    for (index_t c = 0; c < 256; ++c) {
      EXPECT_EQ(zorder_encode(r, c), reference_encode(r, c));
    }
  }
  const index_t big = index_t{1} << 60;  // stay clear of signed overflow
  for (index_t z = 0; z < big; z = z * 3 + 12345) {
    const Offset2D off = reference_decode(z);
    EXPECT_EQ(zorder_decode(z), off) << "z=" << z;
    EXPECT_EQ(zorder_encode(off.row, off.col), reference_encode(off.row, off.col))
        << "z=" << z;
  }
}

TEST(ZOrder, CurveIsABijectionOverTheGrid) {
  const Rect r{3, 5, 16, 16};
  std::set<std::pair<index_t, index_t>> seen;
  for (index_t i = 0; i < r.size(); ++i) {
    const Coord c = zorder_coord(r, i);
    EXPECT_TRUE(r.contains(c));
    EXPECT_TRUE(seen.insert({c.row, c.col}).second);
    EXPECT_EQ(zorder_index(r, c), i);
  }
  EXPECT_EQ(static_cast<index_t>(seen.size()), r.size());
}

TEST(ZOrder, AlignedRangesAreSquares) {
  // An aligned range [j * 4^h, (j+1) * 4^h) covers exactly a square
  // subgrid — the property the merge recursion relies on.
  const Rect r{0, 0, 16, 16};
  for (index_t h = 0; h <= 3; ++h) {
    const index_t len = index_t{1} << (2 * h);
    for (index_t j = 0; j < r.size() / len; ++j) {
      index_t min_r = 1000, max_r = -1, min_c = 1000, max_c = -1;
      for (index_t i = j * len; i < (j + 1) * len; ++i) {
        const Coord c = zorder_coord(r, i);
        min_r = std::min(min_r, c.row);
        max_r = std::max(max_r, c.row);
        min_c = std::min(min_c, c.col);
        max_c = std::max(max_c, c.col);
      }
      const index_t side = isqrt(len);
      EXPECT_EQ(max_r - min_r + 1, side);
      EXPECT_EQ(max_c - min_c + 1, side);
    }
  }
}

TEST(ZOrder, CurveLengthIsLinear) {
  // Observation 1: one message per curve edge costs O(n) total energy.
  for (index_t side : {2, 4, 8, 16, 32, 64}) {
    const index_t n = side * side;
    const index_t len = zorder_curve_length(side);
    EXPECT_GE(len, n - 1);  // at least one unit per edge
    EXPECT_LE(len, 3 * n);  // linear with a small constant
  }
}

TEST(ZOrder, CurveLengthGrowsLinearly) {
  const double r1 =
      static_cast<double>(zorder_curve_length(32)) / (32.0 * 32.0);
  const double r2 =
      static_cast<double>(zorder_curve_length(64)) / (64.0 * 64.0);
  EXPECT_NEAR(r1, r2, 0.2);  // energy per element converges
}

}  // namespace
}  // namespace scm
