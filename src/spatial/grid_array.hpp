// Arrays distributed over a processor subgrid, one element per processor.
//
// The paper's algorithms operate on arrays stored on rectangular subgrids
// in one of two element orders:
//   * RowMajor — the i-th element lives at (i / cols, i % cols);
//   * ZOrder   — the i-th element lives at the i-th position of the Morton
//                curve of a square power-of-two subgrid (Section III).
//
// Each element carries its critical-path Clock; moving elements between
// arrays (or within one) goes through Machine::send so costs are charged.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/machine.hpp"
#include "spatial/zorder.hpp"

#include <cassert>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace scm {

/// Element order of a GridArray on its subgrid.
enum class Layout { kRowMajor, kZOrder };

/// Coordinate of the processor at position `pos` of `region`'s traversal
/// in `layout` order: the pos-th cell of its row-major walk, or of its
/// Z-order walk (which needs a power-of-two square region). Every array
/// placement in the library is this function of the index.
[[nodiscard]] inline Coord layout_coord(const Rect& region, Layout layout,
                                        index_t pos) {
  if (layout == Layout::kZOrder) return zorder_coord(region, pos);
  return region.at(pos / region.cols, pos % region.cols);
}

/// A value held by one processor together with its critical-path clock.
template <class T>
struct Cell {
  T value{};
  Clock clock{};
};

/// An n-element array distributed over a processor subgrid, one element per
/// processor, in the given layout order. `n` may be smaller than the
/// subgrid (trailing processors hold no element), and the array may start
/// at a non-zero offset of the layout order: element i lives at layout
/// position offset + i of the region. Offset ranges of a common parent
/// square's Z-order are how the 2-D merge recursion (Section V-C) addresses
/// its quadrant sub-ranges.
template <class T>
class GridArray {
 public:
  /// An empty array of `n` default-constructed elements on `region`.
  /// Throws std::invalid_argument when the positions [offset, offset + n)
  /// do not fit the region, or when a non-empty Z-order array's region is
  /// not a power-of-two square.
  GridArray(Rect region, Layout layout, index_t n, index_t offset = 0)
      : region_(region), layout_(layout), offset_(offset) {
    if (n < 0 || offset < 0 || offset + n > region.size()) {
      throw std::invalid_argument(
          "GridArray: positions [offset, offset + n) exceed the region");
    }
    // An empty array never decodes a Morton position, so any region
    // (including a degenerate 0 x 0 one) is fine for n == 0.
    if (n > 0 && layout == Layout::kZOrder &&
        !(region.square() && is_pow2(region.rows))) {
      throw std::invalid_argument(
          "GridArray: a Z-order region must be a power-of-two square");
    }
    cells_.resize(static_cast<size_t>(n));
  }

  /// The canonical array for `n` elements: a sqrt(n) x sqrt(n) (rounded up
  /// to a power of two) square at `origin` in the given layout.
  static GridArray on_square(Coord origin, index_t n,
                             Layout layout = Layout::kZOrder) {
    return GridArray(square_at(origin, square_side_for(n)), layout, n);
  }

  /// Builds an array from host values with zero clocks (the values are the
  /// algorithm's input, already resident at their processors).
  static GridArray from_values(Rect region, Layout layout,
                               const std::vector<T>& values) {
    GridArray out(region, layout, static_cast<index_t>(values.size()));
    for (size_t i = 0; i < values.size(); ++i) out.cells_[i].value = values[i];
    return out;
  }

  /// As from_values, on the canonical square subgrid at `origin`.
  static GridArray from_values_square(Coord origin,
                                      const std::vector<T>& values,
                                      Layout layout = Layout::kZOrder) {
    GridArray out =
        on_square(origin, static_cast<index_t>(values.size()), layout);
    for (size_t i = 0; i < values.size(); ++i) out.cells_[i].value = values[i];
    return out;
  }

  [[nodiscard]] index_t size() const {
    return static_cast<index_t>(cells_.size());
  }
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const Rect& region() const { return region_; }
  [[nodiscard]] Layout layout() const { return layout_; }

  /// Layout position of element 0 within the region's traversal order.
  [[nodiscard]] index_t offset() const { return offset_; }

  /// Coordinate of the processor holding element i: layout position
  /// offset + i of the region.
  [[nodiscard]] Coord coord(index_t i) const {
    assert(i >= 0 && i < size());
    return layout_coord(region_, layout_, offset_ + i);
  }

  [[nodiscard]] Cell<T>& operator[](index_t i) {
    assert(i >= 0 && i < size());
    return cells_[static_cast<size_t>(i)];
  }
  [[nodiscard]] const Cell<T>& operator[](index_t i) const {
    assert(i >= 0 && i < size());
    return cells_[static_cast<size_t>(i)];
  }

  /// Host-side copy of the element values (for verification / output).
  [[nodiscard]] std::vector<T> values() const {
    std::vector<T> out;
    out.reserve(cells_.size());
    for (const Cell<T>& c : cells_) out.push_back(c.value);
    return out;
  }

  /// Largest clock over all elements (the array's readiness time).
  [[nodiscard]] Clock max_clock() const {
    Clock c{};
    for (const Cell<T>& cell : cells_) c = Clock::join(c, cell.clock);
    return c;
  }

  /// Announces every element as a resident value to `m`'s trace sinks
  /// (Machine::birth). Input arrays materialise on the grid without
  /// messages; announcing them lets residency accounting (the conformance
  /// checker) see the placement explicitly.
  void announce(Machine& m) const {
    if (empty()) return;
    std::vector<BirthEvent> batch(cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
      batch[i] = BirthEvent{coord(static_cast<index_t>(i)), cells_[i].clock};
    }
    m.birth_bulk(batch);  // bulk-ok: attributed to the caller's phase
  }

  /// Announces every element as retired (Machine::death): the array's
  /// processors no longer hold its values. Sending from a retired cell is
  /// a conformance violation until a new value arrives there.
  void retire(Machine& m) const {
    if (empty()) return;
    std::vector<Coord> batch(cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
      batch[i] = coord(static_cast<index_t>(i));
    }
    m.death_bulk(batch);  // bulk-ok: attributed to the caller's phase
  }

 private:
  Rect region_;
  Layout layout_;
  index_t offset_{0};
  std::vector<Cell<T>> cells_;
};

/// Sends element `i` of `src` to slot `j` of `dst`, charging the message
/// and propagating the clock. Source and destination may be the same array.
template <class T>
void send_element(Machine& m, const GridArray<T>& src, index_t i,
                  GridArray<T>& dst, index_t j) {
  const Cell<T>& from = src[i];
  dst[j] = Cell<T>{from.value, m.send(src.coord(i), dst.coord(j), from.clock)};
}

/// Bulk form of send_element: performs every (src index, dst index) move
/// of `moves` as one Machine::send_bulk batch. All source cells are read
/// before any destination cell is written, so the moves behave as a
/// parallel gather-then-scatter even when src and dst alias.
template <class T>
void send_elements(Machine& m, const GridArray<T>& src, GridArray<T>& dst,
                   std::span<const std::pair<index_t, index_t>> moves) {
  if (moves.empty()) return;
  std::vector<MessageEvent> batch(moves.size());
  std::vector<T> values(moves.size());
  for (size_t k = 0; k < moves.size(); ++k) {
    const auto [i, j] = moves[k];
    const Cell<T>& cell = src[i];
    batch[k] = MessageEvent{src.coord(i), dst.coord(j), 0, cell.clock, {}};
    values[k] = cell.value;
  }
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
  for (size_t k = 0; k < moves.size(); ++k) {
    dst[moves[k].second] = Cell<T>{std::move(values[k]), batch[k].arrival};
  }
}

/// Routes every element of `src` directly to its position in a fresh array
/// with the given region/layout (a direct permutation: one message per
/// element, as used for the Z-order -> row-major step of the 2-D merge),
/// charged as a single send_bulk batch.
/// `perm[i]` gives the destination index of source element i; pass an
/// identity-sized empty vector for the identity routing.
template <class T>
GridArray<T> route_permutation(Machine& m, const GridArray<T>& src,
                               Rect dst_region, Layout dst_layout,
                               const std::vector<index_t>& perm = {}) {
  GridArray<T> dst(dst_region, dst_layout, src.size());
  if (src.empty()) return dst;
  assert(perm.empty() || perm.size() == static_cast<size_t>(src.size()));
  std::vector<MessageEvent> batch(static_cast<size_t>(src.size()));
  for (index_t i = 0; i < src.size(); ++i) {
    const index_t j = perm.empty() ? i : perm[static_cast<size_t>(i)];
    batch[static_cast<size_t>(i)] =
        MessageEvent{src.coord(i), dst.coord(j), 0, src[i].clock, Clock{}};
  }
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
  for (index_t i = 0; i < src.size(); ++i) {
    const index_t j = perm.empty() ? i : perm[static_cast<size_t>(i)];
    dst[j] = Cell<T>{src[i].value, batch[static_cast<size_t>(i)].arrival};
  }
  return dst;
}

}  // namespace scm
