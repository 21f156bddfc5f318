// The energy-optimal parallel scan (Section IV-C, Lemma IV.3).
//
// Input: an array stored in Z-order on a square power-of-two subgrid.
// Output: inclusive prefix combinations under an associative operator, the
// i-th result stored at the i-th input's processor.
//
// The algorithm forms a 4-ary summation tree over the grid's quadrant
// recursion:
//   * up-sweep   — recursively computes each subtree's total; the root of a
//                  height-i subtree is stored at the i-th processor of the
//                  subtree's subgrid in Z-order, so every processor holds at
//                  most two tree values (Fig. 1a);
//   * down-sweep — passes the prefix "from the left of this subtree" down
//                  the quadrants: quadrant S_i receives x + s_0 + ... +
//                  s_{i-1}, computed by chaining through the quadrant roots
//                  (Fig. 1b).
//
// Costs (Lemma IV.3): O(n) energy (a constant factor over the Z-order curve
// itself), O(log n) depth, O(sqrt(n)) distance.
//
// Arrays may underfill their square region (n need not be a power of 4):
// absent trailing elements are treated as missing, not as identity values,
// so the operator needs no identity element.
#pragma once

#include "collectives/operators.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"

#include <array>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace scm {

namespace detail {

/// One scan execution: holds the summation-tree nodes produced by the
/// up-sweep so the down-sweep can chain prefixes through them. The nodes
/// follow Lemma IV.3's placement: the root of the height-h subtree over
/// positions [lo, lo + arity^h) lives at the h-th processor of that
/// subgrid, one per aligned block, so level h is a dense array indexed by
/// lo / arity^h. All levels share one flat vector, sized once per run;
/// leaves are not stored, since a height-0 node is the input cell itself.
///
/// kLog2Arity = 2 gives the paper's 4-ary quadrant tree (the energy-optimal
/// scan); kLog2Arity = 1 gives a binary tree over the array order, which is
/// the paper's "naive 1-D parallel prefix sum" baseline with Theta(n log n)
/// energy when laid out in row-major order.
template <class T, class Op, int kLog2Arity = 2>
class ScanExec {
 public:
  static constexpr int kArity = 1 << kLog2Arity;

  ScanExec(Machine& m, const GridArray<T>& in, GridArray<T>& out, Op op)
      : m_(m), in_(in), out_(out), op_(op), n_(in.size()) {}

  void run() {
    if (n_ == 0) return;
    index_t height = 0;
    index_t nodes = 0;
    while ((index_t{1} << (kLog2Arity * height)) < n_) {
      ++height;
      level_begin_[height] = nodes;
      nodes += ((n_ - 1) >> (kLog2Arity * height)) + 1;
    }
    tree_.resize(static_cast<std::size_t>(nodes));
    upsweep(0, height);
    downsweep(0, height, std::nullopt, Coord{});
  }

 private:
  struct Node {
    Cell<T> cell;
    Coord coord;
  };

  /// The stored node of [lo, lo + arity^height), for height >= 1.
  Node& node(index_t lo, index_t height) {
    return tree_[static_cast<std::size_t>(
        level_begin_[height] + (lo >> (kLog2Arity * height)))];
  }

  /// Coordinate of logical position z in the array's layout order over its
  /// full region (valid beyond the array's fill, where summation-tree nodes
  /// of underfilled subtrees may be stored). Honours the array's offset so
  /// scans over z-order sub-ranges stay within their span.
  Coord zcoord(index_t z) const {
    return layout_coord(in_.region(), in_.layout(), in_.offset() + z);
  }

  /// Computes the subtree total of positions [lo, lo + arity^height),
  /// storing it at position lo + height of the region ("the i-th processor
  /// of the current subgrid in Z-order, where i is the distance to a
  /// leaf").
  Node upsweep(index_t lo, index_t height) {
    if (height == 0) return Node{in_[lo], in_.coord(lo)};
    const index_t child_len = index_t{1} << (kLog2Arity * (height - 1));
    const Coord store_at = zcoord(lo + height);
    std::optional<Cell<T>> acc;
    for (int c = 0; c < kArity; ++c) {
      const index_t child_lo = lo + c * child_len;
      if (child_lo >= n_) break;
      const Node child = upsweep(child_lo, height - 1);
      const Cell<T> arrived{child.cell.value,
                            m_.send(child.coord, store_at, child.cell.clock)};
      if (acc) {
        acc = Cell<T>{op_(acc->value, arrived.value),
                      Clock::join(acc->clock, arrived.clock)};
        m_.op();
        m_.observe(acc->clock);
      } else {
        acc = arrived;
      }
    }
    return node(lo, height) = Node{*acc, store_at};
  }

  /// Delivers the exclusive prefix `x` (resident at `x_at`, or nullopt for
  /// the leftmost spine) into the subtree and writes inclusive results.
  /// Within one level the prefix chains through the quadrant roots:
  /// S_i's prefix is x + s_0 + ... + s_{i-1} (Fig. 1b).
  void downsweep(index_t lo, index_t height, std::optional<Cell<T>> x,
                 Coord x_at) {
    if (height == 0) {
      const Cell<T>& leaf = in_[lo];
      if (x) {
        // x has already been delivered to the leaf's processor by the
        // caller (the height-0 node coordinate is the leaf itself).
        out_[lo] = Cell<T>{op_(x->value, leaf.value),
                           Clock::join(x->clock, leaf.clock)};
        m_.op();
        m_.observe(out_[lo].clock);
      } else {
        out_[lo] = leaf;
      }
      return;
    }
    const index_t child_len = index_t{1} << (kLog2Arity * (height - 1));
    std::optional<Cell<T>> running = x;
    Coord running_at = x_at;
    for (int c = 0; c < kArity; ++c) {
      const index_t child_lo = lo + c * child_len;
      if (child_lo >= n_) break;
      const Node child = height == 1 ? Node{in_[child_lo], in_.coord(child_lo)}
                                     : node(child_lo, height - 1);
      // Deliver the current prefix to this child's root processor.
      std::optional<Cell<T>> delivered;
      if (running) {
        delivered = Cell<T>{
            running->value, m_.send(running_at, child.coord, running->clock)};
      }
      downsweep(child_lo, height - 1, delivered, child.coord);
      // Extend the prefix with this child's subtree total; the extension is
      // computed at the child's root, where both operands reside.
      if (delivered) {
        running = Cell<T>{op_(delivered->value, child.cell.value),
                          Clock::join(delivered->clock, child.cell.clock)};
        m_.op();
        m_.observe(running->clock);
      } else {
        running = child.cell;
      }
      running_at = child.coord;
    }
  }

  Machine& m_;
  const GridArray<T>& in_;
  GridArray<T>& out_;
  Op op_;
  index_t n_;
  std::vector<Node> tree_;
  // level_begin_[h]: index in tree_ of level h's first node (h >= 1).
  std::array<index_t, 64> level_begin_{};
};

/// Throws std::invalid_argument (naming `who`) unless the summation tree
/// of a 2^kLog2Arity-ary ScanExec over `a` fits in a's region: its nodes
/// occupy layout positions up to a.offset() plus the smallest power of the
/// arity covering the array.
template <int kLog2Arity, class T>
void require_scan_tree_fits(const GridArray<T>& a, const char* who) {
  index_t cap = 1;
  while (cap < a.size()) cap <<= kLog2Arity;
  if (a.size() > 0 && a.offset() + cap > a.region().size()) {
    throw std::invalid_argument(
        std::string(who) +
        ": the summation tree's positions exceed the array's region");
  }
}

}  // namespace detail

/// Inclusive prefix scan of a Z-order array under the associative operator
/// `op` (Lemma IV.3: O(n) energy, O(log n) depth, O(sqrt n) distance).
/// Results are returned in an array with the same region and layout; the
/// i-th result lives at the i-th input's processor.
/// Throws std::invalid_argument, before charging anything, for a
/// row-major array or one whose summation tree overruns its region.
template <class T, class Op>
[[nodiscard]] GridArray<T> scan(Machine& m, const GridArray<T>& a, Op op) {
  if (a.layout() != Layout::kZOrder) {
    throw std::invalid_argument("scan: the array must be in Z-order");
  }
  detail::require_scan_tree_fits<2>(a, "scan");
  Machine::PhaseScope scope(m, "scan");
  GridArray<T> out(a.region(), a.layout(), a.size(), a.offset());
  detail::ScanExec<T, Op> exec(m, a, out, op);
  exec.run();
  return out;
}

/// Segmented inclusive scan (Section IV-C "Segmented Scan"): an independent
/// scan per segment, where segments start at elements whose `head` flag is
/// set. Runs the same algorithm under the segmented operator wrapper.
template <class T, class Op>
[[nodiscard]] GridArray<Seg<T>> segmented_scan(Machine& m,
                                               const GridArray<Seg<T>>& a,
                                               Op op) {
  Machine::PhaseScope scope(m, "segmented_scan");
  return scan(m, a, SegOp<Op>{op});
}

/// The segment heads of a sorted array, for segmented_scan: in one round of
/// neighbour hand-offs element i receives element i - 1's key and heads a
/// segment iff the keys differ; element 0 heads when `count` > 0. Only the
/// first `count` elements take part; the rest neither send, receive nor
/// head. Each message carries its sender's clock from before the round and
/// is joined into a[i].clock, so the round adds one level of depth and
/// O(count) energy. Charges no local ops, opens no phase, and throws
/// std::invalid_argument unless 0 <= count <= a.size().
template <class T, class Key>
[[nodiscard]] std::vector<char> segment_heads(Machine& m, GridArray<T>& a,
                                              Key key, index_t count) {
  if (count < 0 || count > a.size()) {
    throw std::invalid_argument("segment_heads: count outside [0, size]");
  }
  std::vector<char> head(static_cast<size_t>(a.size()), 0);
  if (count == 0) return head;
  head[0] = 1;
  std::vector<MessageEvent> batch(static_cast<size_t>(count - 1));
  for (index_t i = 1; i < count; ++i) {
    batch[static_cast<size_t>(i - 1)] =
        MessageEvent{a.coord(i - 1), a.coord(i), 0, a[i - 1].clock, Clock{}};
  }
  m.send_bulk(batch);  // bulk-ok: a shift by one, in the caller's phase
  for (index_t i = 1; i < count; ++i) {
    a[i].clock =
        Clock::join(a[i].clock, batch[static_cast<size_t>(i - 1)].arrival);
    head[static_cast<size_t>(i)] =
        key(a[i].value) != key(a[i - 1].value) ? 1 : 0;
  }
  return head;
}

/// Exclusive prefix scan: result i combines elements [0, i) and the first
/// result is `identity`. Implemented as the inclusive scan followed by a
/// one-hop shift along the Z-order curve, which adds O(n) energy and O(1)
/// depth (Observation 1) — the bounds of Lemma IV.3 are unchanged.
template <class T, class Op>
[[nodiscard]] GridArray<T> exclusive_scan(Machine& m, const GridArray<T>& a,
                                          Op op, T identity) {
  Machine::PhaseScope scope(m, "exclusive_scan");
  GridArray<T> inclusive = scan(m, a, op);
  GridArray<T> out(a.region(), a.layout(), a.size(), a.offset());
  if (a.size() == 0) return out;
  out[0] = Cell<T>{identity, Clock{}};
  // The shifts are independent (each reads only the inclusive result), so
  // the whole curve walk is one bulk batch.
  std::vector<MessageEvent> batch(static_cast<size_t>(a.size() - 1));
  for (index_t i = 1; i < a.size(); ++i) {
    batch[static_cast<size_t>(i - 1)] =
        MessageEvent{inclusive.coord(i - 1), inclusive.coord(i), 0,
                     inclusive[i - 1].clock, Clock{}};
  }
  m.send_bulk(batch);
  for (index_t i = 1; i < a.size(); ++i) {
    out[i] = Cell<T>{inclusive[i - 1].value,
                     batch[static_cast<size_t>(i - 1)].arrival};
  }
  return out;
}

}  // namespace scm
