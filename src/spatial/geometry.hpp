// Geometry primitives of the Spatial Computer Model: integer grid
// coordinates, Manhattan distance, and axis-aligned rectangular processor
// regions ("subgrids" in the paper, Section III).
//
// The model places processors on an unbounded 2-D Cartesian grid. A message
// from p(i,j) to p(x,y) costs |x-i| + |y-j| (its Manhattan distance); all
// cost accounting in the library flows through these types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <string>

namespace scm {

/// Index type for grid coordinates and element counts. Signed so that
/// coordinate arithmetic (offsets, differences) is natural.
using index_t = std::int64_t;

/// A processor coordinate on the unbounded grid. `row` grows downwards,
/// `col` grows rightwards, matching the paper's figures (the top-left
/// processor of a subgrid is its smallest coordinate).
struct Coord {
  index_t row{0};
  index_t col{0};

  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Packs a grid position into one 64-bit key: the low 32 bits of `row`
/// above the low 32 bits of `col`. Injective for coordinates in
/// [-2^31, 2^31), far beyond any simulated grid. The one coordinate key of
/// the library: hash maps over cells and links, and the tile-ownership map.
[[nodiscard]] constexpr std::uint64_t coord_key(index_t row, index_t col) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32 |
         static_cast<std::uint32_t>(col);
}

/// Hash of a processor coordinate for unordered containers.
struct CoordHash {
  std::size_t operator()(Coord c) const {
    return std::hash<std::uint64_t>{}(coord_key(c.row, c.col));
  }
};

/// Manhattan (L1) distance between two processors: the cost of sending one
/// message between them in the Spatial Computer Model.
[[nodiscard]] inline index_t manhattan(Coord a, Coord b) {
  return std::abs(a.row - b.row) + std::abs(a.col - b.col);
}

/// An axis-aligned rectangular subgrid of processors: `rows x cols` cells
/// whose top-left processor is (row0, col0).
struct Rect {
  index_t row0{0};
  index_t col0{0};
  index_t rows{0};
  index_t cols{0};

  friend bool operator==(const Rect&, const Rect&) = default;

  /// Number of processors in the subgrid.
  [[nodiscard]] index_t size() const { return rows * cols; }

  /// True when the subgrid is square.
  [[nodiscard]] bool square() const { return rows == cols; }

  /// Top-left processor of the subgrid.
  [[nodiscard]] Coord origin() const { return {row0, col0}; }

  /// Processor at offset (dr, dc) from the origin. The offset must lie
  /// within the rectangle in checked builds.
  [[nodiscard]] Coord at(index_t dr, index_t dc) const;

  /// True when `c` lies inside the subgrid.
  [[nodiscard]] bool contains(Coord c) const {
    return c.row >= row0 && c.row < row0 + rows && c.col >= col0 &&
           c.col < col0 + cols;
  }

  /// True when the two rectangles share at least one processor.
  [[nodiscard]] bool intersects(const Rect& o) const;

  /// The i-th quadrant of the (even-sided) rectangle in the paper's Z-order:
  /// 0 = top-left, 1 = top-right, 2 = bottom-left, 3 = bottom-right.
  [[nodiscard]] Rect quadrant(int i) const;

  /// Largest Manhattan distance between any two processors of the subgrid:
  /// (rows - 1) + (cols - 1).
  [[nodiscard]] index_t diameter() const {
    return (rows > 0 && cols > 0) ? (rows - 1) + (cols - 1) : 0;
  }

  /// Human-readable form "[r0,c0 rxc]" for diagnostics.
  [[nodiscard]] std::string str() const;
};

std::ostream& operator<<(std::ostream& os, Coord c);
std::ostream& operator<<(std::ostream& os, const Rect& r);

/// True when `v` is a power of two (and positive).
[[nodiscard]] constexpr bool is_pow2(index_t v) {
  return v > 0 && (v & (v - 1)) == 0;
}

/// Smallest power of two >= v (v >= 1).
[[nodiscard]] index_t ceil_pow2(index_t v);

/// Integer square root: the largest s with s*s <= v (v >= 0).
[[nodiscard]] index_t isqrt(index_t v);

/// Smallest power-of-two side s such that an s x s grid holds >= n cells.
/// This is the canonical square subgrid the paper places an n-element input
/// on (n is assumed to be a power of 4 in the paper; we round up).
[[nodiscard]] index_t square_side_for(index_t n);

/// A square power-of-two-sided rect at `origin` with side `side`.
[[nodiscard]] inline Rect square_at(Coord origin, index_t side) {
  return Rect{origin.row, origin.col, side, side};
}

}  // namespace scm
