// Tests of GridArray layouts, offsets, and element routing.
#include "spatial/grid_array.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

namespace scm {
namespace {

// The paper's recursive Z-order walk of a power-of-two square: the top-left,
// top-right, bottom-left and bottom-right quadrants, each walked the same
// way. A reference built without any bit interleaving.
void zorder_walk(index_t row0, index_t col0, index_t side,
                 std::vector<Coord>& out) {
  if (side == 1) {
    out.push_back({row0, col0});
    return;
  }
  const index_t half = side / 2;
  zorder_walk(row0, col0, half, out);
  zorder_walk(row0, col0 + half, half, out);
  zorder_walk(row0 + half, col0, half, out);
  zorder_walk(row0 + half, col0 + half, half, out);
}

TEST(GridArray, RowMajorCoordinates) {
  GridArray<int> a(Rect{2, 3, 4, 8}, Layout::kRowMajor, 20);
  EXPECT_EQ(a.coord(0), (Coord{2, 3}));
  EXPECT_EQ(a.coord(7), (Coord{2, 10}));
  EXPECT_EQ(a.coord(8), (Coord{3, 3}));
  EXPECT_EQ(a.coord(19), (Coord{4, 6}));
}

TEST(GridArray, ZOrderCoordinates) {
  GridArray<int> a(Rect{0, 0, 4, 4}, Layout::kZOrder, 16);
  EXPECT_EQ(a.coord(0), (Coord{0, 0}));
  EXPECT_EQ(a.coord(1), (Coord{0, 1}));
  EXPECT_EQ(a.coord(2), (Coord{1, 0}));
  EXPECT_EQ(a.coord(3), (Coord{1, 1}));
  EXPECT_EQ(a.coord(4), (Coord{0, 2}));
  EXPECT_EQ(a.coord(15), (Coord{3, 3}));
}

TEST(GridArray, OffsetRangesAddressTheParentOrder) {
  GridArray<int> whole(Rect{0, 0, 4, 4}, Layout::kZOrder, 16);
  GridArray<int> part(Rect{0, 0, 4, 4}, Layout::kZOrder, 4, 8);
  for (index_t i = 0; i < 4; ++i) {
    EXPECT_EQ(part.coord(i), whole.coord(8 + i));
  }
  EXPECT_EQ(part.offset(), 8);
}

TEST(GridArray, FromValuesAndValuesRoundTrip) {
  std::vector<double> v(10);
  std::iota(v.begin(), v.end(), 0.0);
  auto a = GridArray<double>::from_values_square({0, 0}, v);
  EXPECT_EQ(a.size(), 10);
  EXPECT_EQ(a.values(), v);
  EXPECT_EQ(a.region().rows, 4);  // 4x4 canonical square covers 10
}

TEST(GridArray, CoordinatesAreDistinctPerLayout) {
  for (Layout layout : {Layout::kRowMajor, Layout::kZOrder}) {
    GridArray<int> a(Rect{0, 0, 8, 8}, layout, 64);
    std::set<std::pair<index_t, index_t>> seen;
    for (index_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(seen.insert({a.coord(i).row, a.coord(i).col}).second);
    }
  }
}

TEST(GridArray, SendElementChargesAndMoves) {
  Machine m;
  auto src = GridArray<int>::from_values_square({0, 0}, {1, 2, 3, 4});
  GridArray<int> dst(Rect{0, 10, 2, 2}, Layout::kRowMajor, 4);
  send_element(m, src, 0, dst, 3);
  EXPECT_EQ(dst[3].value, 1);
  EXPECT_EQ(m.metrics().energy, manhattan(src.coord(0), dst.coord(3)));
  EXPECT_EQ(dst[3].clock.depth, 1);
}

TEST(GridArray, RoutePermutationAppliesMapping) {
  Machine m;
  auto src = GridArray<int>::from_values_square({0, 0}, {10, 20, 30, 40});
  const std::vector<index_t> perm{3, 2, 1, 0};
  auto dst = route_permutation(m, src, src.region(), src.layout(), perm);
  EXPECT_EQ(dst.values(), (std::vector<int>{40, 30, 20, 10}));
}

TEST(GridArray, RoutePermutationIdentityIntoNewLayout) {
  Machine m;
  auto src = GridArray<int>::from_values_square({0, 0}, {1, 2, 3, 4, 5, 6},
                                                Layout::kRowMajor);
  auto dst = route_permutation(m, src, src.region(), Layout::kZOrder);
  EXPECT_EQ(dst.values(), src.values());
  EXPECT_EQ(dst.layout(), Layout::kZOrder);
}

TEST(GridArray, OffsetCoordsFollowReferenceWalks) {
  // Element i of an offset array sits at cell offset + i of its region's
  // walk: the recursive quadrant walk for Z-order, nested row and column
  // loops for row-major.
  const GridArray<int> zorder(Rect{3, 5, 8, 8}, Layout::kZOrder, 30, 7);
  std::vector<Coord> zwalk;
  zorder_walk(3, 5, 8, zwalk);
  for (index_t i = 0; i < zorder.size(); ++i) {
    EXPECT_EQ(zorder.coord(i), zwalk[static_cast<size_t>(7 + i)]) << "i=" << i;
  }

  const GridArray<int> row_major(Rect{-2, 4, 4, 6}, Layout::kRowMajor, 20, 3);
  std::vector<Coord> rwalk;
  for (index_t r = -2; r < 2; ++r) {
    for (index_t c = 4; c < 10; ++c) rwalk.push_back({r, c});
  }
  for (index_t i = 0; i < row_major.size(); ++i) {
    EXPECT_EQ(row_major.coord(i), rwalk[static_cast<size_t>(3 + i)])
        << "i=" << i;
  }
}

TEST(GridArray, ConstructorRejectsOutOfContractShapes) {
  // Both shapes would place elements outside their region: a non-square
  // Z-order region puts element 14 at (3, 2) below its 3 rows, and nine
  // row-major elements do not fit a 2 x 2 region (element 8 at (4, 0)).
  EXPECT_THROW(GridArray<int>(Rect{0, 0, 3, 5}, Layout::kZOrder, 15),
               std::invalid_argument);
  EXPECT_THROW(GridArray<int>(Rect{0, 0, 2, 2}, Layout::kRowMajor, 9),
               std::invalid_argument);
  EXPECT_THROW(GridArray<int>(Rect{0, 0, 2, 2}, Layout::kZOrder, 2, 3),
               std::invalid_argument);
  EXPECT_THROW(GridArray<int>(Rect{0, 0, 2, 2}, Layout::kRowMajor, -1),
               std::invalid_argument);
  EXPECT_THROW(GridArray<int>(Rect{0, 0, 2, 2}, Layout::kRowMajor, 1, -1),
               std::invalid_argument);
  EXPECT_NO_THROW(GridArray<int>(Rect{0, 0, 3, 5}, Layout::kRowMajor, 15));
}

TEST(GridArray, EmptyArrayOnAnyRegion) {
  // n == 0 never decodes a layout position, so even degenerate and
  // non-power-of-two regions are legal in every layout.
  const GridArray<int> degenerate(Rect{0, 0, 0, 0}, Layout::kZOrder, 0);
  EXPECT_TRUE(degenerate.empty());
  EXPECT_EQ(degenerate.size(), 0);

  const GridArray<int> rect(Rect{5, -3, 3, 7}, Layout::kZOrder, 0);
  EXPECT_TRUE(rect.empty());

  const GridArray<int> canonical = GridArray<int>::on_square({4, 4}, 0);
  EXPECT_TRUE(canonical.empty());
  EXPECT_EQ(canonical.region(), (Rect{4, 4, 1, 1}));
  EXPECT_EQ(canonical.max_clock(), Clock{});
}

TEST(GridArray, SingleElementArray) {
  const GridArray<int> z = GridArray<int>::from_values_square({2, 3}, {41});
  EXPECT_EQ(z.size(), 1);
  EXPECT_EQ(z.region(), (Rect{2, 3, 1, 1}));
  EXPECT_EQ(z.coord(0), (Coord{2, 3}));
  EXPECT_EQ(z.values(), std::vector<int>{41});

  // A 1 x n row-major line holding one element at a non-zero offset.
  const GridArray<int> line(Rect{0, 0, 1, 8}, Layout::kRowMajor, 1, 5);
  EXPECT_EQ(line.coord(0), (Coord{0, 5}));
}

TEST(GridArray, RoutePermutationOfEmptyAndSingleton) {
  Machine m;
  const GridArray<int> none(Rect{0, 0, 2, 2}, Layout::kZOrder, 0);
  const GridArray<int> routed_none =
      route_permutation(m, none, Rect{1, 1, 4, 4}, Layout::kRowMajor);
  EXPECT_TRUE(routed_none.empty());
  EXPECT_EQ(m.metrics().messages, 0);
  EXPECT_EQ(m.metrics().energy, 0);

  const GridArray<int> one = GridArray<int>::from_values_square({0, 0}, {9});
  const GridArray<int> routed_one =
      route_permutation(m, one, Rect{0, 3, 1, 1}, Layout::kRowMajor);
  EXPECT_EQ(routed_one.values(), std::vector<int>{9});
  EXPECT_EQ(routed_one.coord(0), (Coord{0, 3}));
  EXPECT_EQ(m.metrics().messages, 1);
  EXPECT_EQ(m.metrics().energy, 3);  // Manhattan distance (0,0) -> (0,3)
}

TEST(GridArray, SendElementsEmptyBatchIsFree) {
  Machine m;
  const GridArray<int> src = GridArray<int>::from_values_square({0, 0}, {1});
  GridArray<int> dst(Rect{0, 2, 1, 1}, Layout::kRowMajor, 1);
  const std::vector<std::pair<index_t, index_t>> no_moves;
  send_elements(m, src, dst, std::span(no_moves));
  EXPECT_EQ(m.metrics(), Metrics{});
}

TEST(GridArray, SendElementsSingleMove) {
  Machine m;
  const GridArray<int> src = GridArray<int>::from_values_square({0, 0}, {7});
  GridArray<int> dst(Rect{2, 0, 1, 1}, Layout::kRowMajor, 1);
  const std::vector<std::pair<index_t, index_t>> moves = {{0, 0}};
  send_elements(m, src, dst, std::span(moves));
  EXPECT_EQ(dst[0].value, 7);
  EXPECT_EQ(m.metrics().messages, 1);
  EXPECT_EQ(m.metrics().energy, 2);
}

TEST(GridArray, MaxClockJoinsAllElements) {
  GridArray<int> a(Rect{0, 0, 2, 2}, Layout::kRowMajor, 4);
  a[2].clock = Clock{5, 17};
  a[3].clock = Clock{2, 99};
  EXPECT_EQ(a.max_clock().depth, 5);
  EXPECT_EQ(a.max_clock().distance, 99);
}

}  // namespace
}  // namespace scm
