// The Z-order (Morton) space-filling curve of Section III.
//
// The paper defines it recursively: traverse the four quadrants of a square
// grid in order — top two quadrants first, left to right, then the bottom
// two, left to right. Equivalently, the Z-index interleaves the bits of the
// (row, col) offset with row bits in the more significant positions.
//
// Observation 1 (paper): sending one message along each consecutive edge of
// the Z-order traversal of a sqrt(n) x sqrt(n) subgrid costs O(n) energy.
// Benchmarked by bench/bench_zorder_curve.
#pragma once

#include "spatial/geometry.hpp"

#include <cassert>
#include <cstdint>

namespace scm {

namespace detail {

// Spreads the low 32 bits of v so that bit i moves to bit 2i: five
// shift-and-mask steps, each halving the width of the blocks it moves.
[[nodiscard]] constexpr std::uint64_t spread_bits(std::uint64_t v) {
  v &= 0xffffffffU;
  v = (v | (v << 16)) & 0x0000ffff0000ffffU;
  v = (v | (v << 8)) & 0x00ff00ff00ff00ffU;
  v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0fU;
  v = (v | (v << 2)) & 0x3333333333333333U;
  v = (v | (v << 1)) & 0x5555555555555555U;
  return v;
}

// Inverse of spread_bits: gathers the even bits of v into its low 32 bits.
[[nodiscard]] constexpr std::uint64_t gather_bits(std::uint64_t v) {
  v &= 0x5555555555555555U;
  v = (v | (v >> 1)) & 0x3333333333333333U;
  v = (v | (v >> 2)) & 0x0f0f0f0f0f0f0f0fU;
  v = (v | (v >> 4)) & 0x00ff00ff00ff00ffU;
  v = (v | (v >> 8)) & 0x0000ffff0000ffffU;
  v = (v | (v >> 16)) & 0x00000000ffffffffU;
  return v;
}

}  // namespace detail

/// Interleaves the bits of (row, col) into the Z-order index. The curve
/// visits (0,0), (0,1), (1,0), (1,1), then recursively each quadrant, so
/// row bits occupy the odd (more significant of each pair) positions.
[[nodiscard]] inline index_t zorder_encode(index_t row, index_t col) {
  assert(row >= 0 && col >= 0);
  const auto r = static_cast<std::uint64_t>(row);
  const auto c = static_cast<std::uint64_t>(col);
  return static_cast<index_t>((detail::spread_bits(r) << 1) |
                              detail::spread_bits(c));
}

/// Offset of the i-th processor along the Z-order curve; inverse of
/// zorder_encode.
struct Offset2D {
  index_t row{0};
  index_t col{0};
  friend bool operator==(const Offset2D&, const Offset2D&) = default;
};
[[nodiscard]] inline Offset2D zorder_decode(index_t z) {
  assert(z >= 0);
  const auto v = static_cast<std::uint64_t>(z);
  return Offset2D{static_cast<index_t>(detail::gather_bits(v >> 1)),
                  static_cast<index_t>(detail::gather_bits(v))};
}

/// Coordinate of the i-th processor of a square power-of-two rect in
/// Z-order (i in [0, rect.size())).
[[nodiscard]] inline Coord zorder_coord(const Rect& rect, index_t i) {
  assert(rect.square() && is_pow2(rect.rows));
  assert(i >= 0 && i < rect.size());
  const Offset2D off = zorder_decode(i);
  return rect.at(off.row, off.col);
}

/// Z-order index of coordinate `c` within the square power-of-two rect.
[[nodiscard]] index_t zorder_index(const Rect& rect, Coord c);

/// Total Manhattan length of the Z-order traversal of a side x side grid
/// (the sum over consecutive curve positions of their distance). This is
/// the energy of Observation 1 and is Theta(side^2).
[[nodiscard]] index_t zorder_curve_length(index_t side);

}  // namespace scm
