// Baseline collectives the paper compares against (Sections II-A and IV-C):
//
//   * sequential_scan   — O(n) energy but Omega(n) depth: a single chain of
//                         messages through the array order;
//   * tree_scan_1d      — the "naive 1-D parallel prefix sum via a binary
//                         tree over the array in row-major order":
//                         O(log n) depth but Omega(n log n) energy;
//   * binomial_broadcast / binomial_reduce
//                       — the binary-tree (binomial) collectives of prior
//                         work [Luczynski et al.]: O(log n) depth but
//                         Theta(n log n) energy on a square grid, which the
//                         paper's quadrant collectives beat by Theta(log n).
//
// These exist to regenerate the paper's comparisons; library users should
// call scan/broadcast/reduce from the optimal headers instead.
#pragma once

#include "collectives/scan.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"

#include <cassert>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace scm {

/// Sequential inclusive scan: element i's running prefix hops to element
/// i+1. O(n) energy on a Z-order layout (Observation 1), Theta(n) depth.
template <class T, class Op>
[[nodiscard]] GridArray<T> sequential_scan(Machine& m, const GridArray<T>& a,
                                           Op op) {
  Machine::PhaseScope scope(m, "sequential_scan");
  GridArray<T> out(a.region(), a.layout(), a.size());
  std::optional<Cell<T>> running;
  for (index_t i = 0; i < a.size(); ++i) {
    if (running) {
      const Cell<T> arrived{running->value, m.send(a.coord(i - 1), a.coord(i),
                                                   running->clock)};
      out[i] = Cell<T>{op(arrived.value, a[i].value),
                       Clock::join(arrived.clock, a[i].clock)};
      m.op();
      m.observe(out[i].clock);
    } else {
      out[i] = a[i];
    }
    running = out[i];
  }
  return out;
}

/// The paper's naive baseline: an inclusive scan over a binary summation
/// tree built on the array order. In row-major layout on a square grid this
/// costs Theta(n log n) energy (Section IV-C). Throws std::invalid_argument,
/// before charging anything, when the tree's positions (up to the array's
/// offset plus the power of two covering n) overrun the region.
///
/// Ablation note: run on a *Z-order* array the very same binary tree is
/// O(n) energy again (level-k edges span ~2^k curve positions, i.e.
/// O(sqrt(2^k)) Manhattan distance, a geometric series) — demonstrating
/// that the paper's energy win comes from the space-filling layout, with
/// the 4-ary quadrant tree tightening constants and distance. Benchmarked
/// by bench_scan_baselines.
template <class T, class Op>
[[nodiscard]] GridArray<T> tree_scan_1d(Machine& m, const GridArray<T>& a,
                                        Op op) {
  detail::require_scan_tree_fits<1>(a, "tree_scan_1d");
  Machine::PhaseScope scope(m, "tree_scan_1d");
  GridArray<T> out(a.region(), a.layout(), a.size(), a.offset());
  detail::ScanExec<T, Op, /*kLog2Arity=*/1> exec(m, a, out, op);
  exec.run();
  return out;
}

/// Binomial-tree broadcast over the array order of `rect` in row-major:
/// in round d (from the top), the holder at index i forwards to index
/// i + 2^d. Theta(n log n) energy, O(log n) depth on a square grid.
template <class T>
[[nodiscard]] GridArray<T> binomial_broadcast(Machine& m, const Rect& rect,
                                              const Cell<T>& src) {
  Machine::PhaseScope scope(m, "binomial_broadcast");
  const index_t n = rect.size();
  GridArray<T> out(rect, Layout::kRowMajor, n);
  out[0] = src;
  std::vector<bool> has(static_cast<size_t>(n), false);
  has[0] = true;
  index_t span = ceil_pow2(n);
  std::vector<std::pair<index_t, index_t>> moves;
  for (span /= 2; span >= 1; span /= 2) {
    // A round's receivers (index % 2span == span) never send within the
    // round, so all of its forwards are independent: one bulk batch.
    moves.clear();
    for (index_t i = 0; i + span < n; ++i) {
      if (!has[static_cast<size_t>(i)] || has[static_cast<size_t>(i + span)]) {
        continue;
      }
      if (i % (span * 2) != 0) continue;
      moves.push_back({i, i + span});
    }
    send_elements<T>(m, out, out, moves);
    for (const auto& [from, to] : moves) has[static_cast<size_t>(to)] = true;
  }
  return out;
}

/// Binomial-tree reduce over the array order (reverse of the broadcast):
/// round d combines index i + 2^d into index i. Theta(n log n) energy,
/// O(log n) depth on a square grid.
template <class T, class Op>
[[nodiscard]] Cell<T> binomial_reduce(Machine& m, const GridArray<T>& a,
                                      Op op) {
  assert(!a.empty());
  Machine::PhaseScope scope(m, "binomial_reduce");
  const index_t n = a.size();
  std::vector<Cell<T>> acc(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) acc[static_cast<size_t>(i)] = a[i];
  std::vector<MessageEvent> batch;
  for (index_t span = 1; span < n; span *= 2) {
    // A round's senders (index % 2span == span) and receivers (== 0) are
    // disjoint and every payload is a pre-round accumulator: one batch.
    batch.clear();
    for (index_t i = 0; i + span < n; i += span * 2) {
      batch.push_back(MessageEvent{a.coord(i + span), a.coord(i), 0,
                                   acc[static_cast<size_t>(i + span)].clock,
                                   Clock{}});
    }
    m.send_bulk(batch);
    Clock round_max{};
    size_t k = 0;
    for (index_t i = 0; i + span < n; i += span * 2, ++k) {
      const auto lo = static_cast<size_t>(i);
      const auto hi = static_cast<size_t>(i + span);
      acc[lo] = Cell<T>{op(acc[lo].value, acc[hi].value),
                        Clock::join(acc[lo].clock, batch[k].arrival)};
      round_max = Clock::join(round_max, acc[lo].clock);
    }
    m.op_bulk(static_cast<index_t>(k));
    m.observe(round_max);
  }
  return acc[0];
}

}  // namespace scm
