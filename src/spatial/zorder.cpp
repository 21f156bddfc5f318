#include "spatial/zorder.hpp"

#include <cassert>

namespace scm {

index_t zorder_index(const Rect& rect, Coord c) {
  assert(rect.square() && is_pow2(rect.rows));
  assert(rect.contains(c));
  return zorder_encode(c.row - rect.row0, c.col - rect.col0);
}

index_t zorder_curve_length(index_t side) {
  assert(is_pow2(side));
  index_t total = 0;
  Offset2D prev{0, 0};
  for (index_t i = 1; i < side * side; ++i) {
    const Offset2D cur = zorder_decode(i);
    total += std::abs(cur.row - prev.row) + std::abs(cur.col - prev.col);
    prev = cur;
  }
  return total;
}

}  // namespace scm
