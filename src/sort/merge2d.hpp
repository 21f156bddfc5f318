// The 2-D merge (Section V-C-b, Lemma V.7) and its building blocks.
//
// Merges two sorted arrays living on Z-order sub-ranges of a common parent
// square into a sorted Z-order destination range:
//   1. the rank n/4, n/2, and 3n/4 elements of A||B are found with one
//      deterministic two-array multiselect (Lemma V.6; the three ranks
//      share a single sample sort), splitting A and B into four sub-array
//      pairs;
//   2. the split decision is broadcast over the working area and every
//      element is routed to its quadrant sub-range (a direct permutation);
//   3. each quadrant pair is merged recursively;
//   4. the result is sorted in Z-order over the destination range (the
//      final Z-order -> row-major permutation of Fig. 3(d) happens once, at
//      the top of the mergesort).
//
// Costs (Lemma V.7): O(n^{3/2}) energy, O(log^2 n) depth, O(sqrt n)
// distance — each recursion level moves every element O(sqrt(level size))
// and the level diameters shrink geometrically. The implementation
// matches these shapes (the fitted certificates in testing/bounds.json
// pin them); an earlier revision paid Θ(n²)-looking energy because each
// merge node ran three full rank selections whose window All-Pairs-Sorts
// dominated — see the multiselect note at step 1.
//
// `less` must be a strict TOTAL order (wrap with WithId/TotalLess).
#pragma once

#include "collectives/broadcast.hpp"
#include "sort/rank_select_sorted.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/independence.hpp"
#include "spatial/machine.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <vector>

namespace scm {

namespace detail {

/// Smallest axis-aligned rect covering layout positions [offset, offset+n)
/// of the region (used to scope broadcasts of merge decisions).
inline Rect bounding_rect(const Rect& region, index_t offset, index_t n) {
  assert(n >= 1);
  index_t r0 = region.row0 + region.rows;
  index_t c0 = region.col0 + region.cols;
  index_t r1 = region.row0;
  index_t c1 = region.col0;
  // Aligned Z-order ranges are unions of at most a few squares; walking the
  // covered aligned blocks keeps this O(log n) instead of O(n).
  index_t pos = offset;
  index_t remaining = n;
  while (remaining > 0) {
    index_t block = index_t{1};
    while (block * 4 <= remaining && pos % (block * 4) == 0) block *= 4;
    const Coord corner = zorder_coord(region, pos);
    const index_t side = isqrt(block);
    r0 = std::min(r0, corner.row);
    c0 = std::min(c0, corner.col);
    r1 = std::max(r1, corner.row + side - 1);
    c1 = std::max(c1, corner.col + side - 1);
    pos += block;
    remaining -= block;
  }
  return Rect{r0, c0, r1 - r0 + 1, c1 - c0 + 1};
}

/// Gather-sort-scatter base case: for constant-sized inputs, pull all
/// elements to the destination corner processor, order them locally, and
/// scatter them to the destination range. O(1) depth, O(n * diameter)
/// energy — dominated by the enclosing recursion level.
template <class T, class Less>
GridArray<T> merge_base(Machine& m, const std::vector<const GridArray<T>*>& in,
                        const Rect& region, index_t dst_offset, Less less) {
  index_t n = 0;
  for (const auto* arr : in) n += arr->size();
  GridArray<T> out(region, Layout::kZOrder, n, dst_offset);
  if (n == 0) return out;
  // The gather deliberately parks up to base_size (a compile-time O(1)
  // constant) words on the corner processor; its own phase scope declares
  // that residency window to the conformance checker.
  Machine::PhaseScope scope(m, "merge2d/base");
  const Coord work = zorder_coord(region, dst_offset);

  struct Gathered {
    T value;
    Clock clock;
  };
  std::vector<Gathered> all;
  all.reserve(static_cast<size_t>(n));
  std::vector<MessageEvent> batch;
  batch.reserve(static_cast<size_t>(n));
  for (const auto* arr : in) {
    for (index_t i = 0; i < arr->size(); ++i) {
      batch.push_back(
          MessageEvent{arr->coord(i), work, 0, (*arr)[i].clock, Clock{}});
      all.push_back(Gathered{(*arr)[i].value, Clock{}});
    }
  }
  {
    // Up to base_size distinct words converge on the corner processor in
    // one batch. Delivery order is immaterial: the local stable sort
    // below re-orders the whole gathered set under a strict total order
    // before anything depends on it, so the fan-in is declared order-free
    // to the batch-independence checker rather than split into n rounds.
    ScopedUnorderedDelivery gather_fan_in(
        "merge2d/base gather: distinct words re-ordered by the local sort "
        "under a strict total order");
    m.send_bulk(batch);
  }
  Clock ready{};
  for (size_t k = 0; k < batch.size(); ++k) {
    all[k].clock = batch[k].arrival;
    ready = Clock::join(ready, batch[k].arrival);
  }
  std::stable_sort(all.begin(), all.end(),
                   [&](const Gathered& x, const Gathered& y) {
                     return less(x.value, y.value);
                   });
  m.op(n);
  // Every output position depends on the full gathered set (the local sort
  // decides all placements), so scattered elements carry the joined clock.
  batch.assign(static_cast<size_t>(n), MessageEvent{});
  for (index_t i = 0; i < n; ++i) {
    batch[static_cast<size_t>(i)] =
        MessageEvent{work, out.coord(i), 0, ready, Clock{}};
  }
  m.send_bulk(batch);
  for (index_t i = 0; i < n; ++i) {
    out[i] = Cell<T>{all[static_cast<size_t>(i)].value,
                     batch[static_cast<size_t>(i)].arrival};
  }
  return out;
}

/// Routes `count` elements of `src` starting at `first` into the output
/// range starting at out position `dst_i`, joining each element's clock
/// with the broadcast plan's arrival at the element's processor.
template <class T>
void route_split(Machine& m, const GridArray<T>& src, index_t first,
                 index_t count, GridArray<T>& out, index_t dst_i,
                 const GridArray<char>& plan, const Rect& plan_rect) {
  if (count == 0) return;
  std::vector<MessageEvent> batch(static_cast<size_t>(count));
  for (index_t i = 0; i < count; ++i) {
    const Coord from = src.coord(first + i);
    Clock clock = src[first + i].clock;
    if (plan_rect.contains(from)) {
      const index_t pi = (from.row - plan_rect.row0) * plan_rect.cols +
                         (from.col - plan_rect.col0);
      clock = Clock::join(clock, plan[pi].clock);
    }
    batch[static_cast<size_t>(i)] =
        MessageEvent{from, out.coord(dst_i + i), 0, clock, Clock{}};
  }
  m.send_bulk(batch);  // bulk-ok: caller holds the merge2d phase scope
  for (index_t i = 0; i < count; ++i) {
    out[dst_i + i] = Cell<T>{src[first + i].value,
                             batch[static_cast<size_t>(i)].arrival};
  }
}

// Base-case cutoff. 8 keeps the measured energy curve on Theorem V.8's
// n^{3/2} shape from n ~ 48 up (larger bases make small instances
// base-case-dominated and artificially cheap, which skews log-log fits
// of the asymptotic shape), and parks at most 8 words on the base
// gather's corner processor. The ablation bench (bench_ablation_tuning)
// sweeps this knob.
constexpr index_t kMergeBaseSize = 8;

}  // namespace detail

/// Tuning knobs of the merge/mergesort recursion, exposed for the ablation
/// benchmarks (bench_ablation_tuning). The defaults reproduce the paper's
/// cost shapes; `base_size` trades recursion depth against the
/// O(k * diameter) energy of the gather-sort-scatter base case.
struct MergeConfig {
  index_t base_size{detail::kMergeBaseSize};
};

/// Merges sorted arrays `a` and `b` (Z-order ranges of the same parent
/// square) into a sorted Z-order array over positions [dst_offset,
/// dst_offset + |a| + |b|) of that square. Lemma V.7 costs.
template <class T, class Less>
[[nodiscard]] GridArray<T> merge2d(Machine& m, const GridArray<T>& a,
                                   const GridArray<T>& b, index_t dst_offset,
                                   Less less,
                                   const MergeConfig& config = {}) {
  assert(a.region() == b.region());
  assert(a.layout() == Layout::kZOrder && b.layout() == Layout::kZOrder);
  const Rect region = a.region();
  const index_t n = a.size() + b.size();
  assert(dst_offset + n <= region.size());
  if (n == 0) return GridArray<T>(region, Layout::kZOrder, 0, dst_offset);
  Machine::PhaseScope scope(m, "merge2d");

  // One-sided or constant-sized merges resolve directly.
  if (a.empty() || b.empty() || n <= config.base_size) {
    if (n <= config.base_size) {
      return detail::merge_base(
          m, std::vector<const GridArray<T>*>{&a, &b}, region, dst_offset,
          less);
    }
    // A sorted one-sided input only needs repositioning into the range,
    // charged as one bulk batch.
    const GridArray<T>& src = a.empty() ? b : a;
    GridArray<T> out(region, Layout::kZOrder, n, dst_offset);
    std::vector<MessageEvent> batch(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      batch[static_cast<size_t>(i)] =
          MessageEvent{src.coord(i), out.coord(i), 0, src[i].clock, Clock{}};
    }
    m.send_bulk(batch);
    for (index_t i = 0; i < n; ++i) {
      out[i] = Cell<T>{src[i].value, batch[static_cast<size_t>(i)].arrival};
    }
    return out;
  }

  // Step 1: split ranks n/4, n/2, 3n/4 (Fig. 3), found with one
  // deterministic multiselect so the three ranks share a single sample
  // gather and sample sort (Lemma V.6) — three independent selections
  // would each re-pay the dominant O(n^{5/4}) sample-sort term. Their
  // clocks join into the routing plan.
  const Coord work = zorder_coord(region, dst_offset);
  const index_t ks[3] = {n / 4, n / 2, (3 * n) / 4};
  const std::vector<SplitResult> splits = multiselect_two_sorted(
      m, a, b, std::span<const index_t>(ks), work, less);
  const SplitResult& s1 = splits[0];
  const SplitResult& s2 = splits[1];
  const SplitResult& s3 = splits[2];
  assert(s1.a_count <= s2.a_count && s2.a_count <= s3.a_count);
  assert(s1.b_count <= s2.b_count && s2.b_count <= s3.b_count);

  // Step 2: broadcast the routing plan over the working area, then route
  // every element to its quadrant sub-range.
  const Rect extent = detail::bounding_rect(region, dst_offset, n);
  const Clock plan_ready =
      Clock::join({s1.clock, s2.clock, s3.clock});
  const Clock plan_at_corner = m.send(work, extent.origin(), plan_ready);
  const GridArray<char> plan =
      broadcast(m, extent, Cell<char>{0, plan_at_corner});

  const index_t a_cuts[5] = {0, s1.a_count, s2.a_count, s3.a_count, a.size()};
  const index_t b_cuts[5] = {0, s1.b_count, s2.b_count, s3.b_count, b.size()};
  GridArray<T> out(region, Layout::kZOrder, n, dst_offset);
  index_t quad_offsets[4];
  index_t quad_a[4];
  index_t quad_b[4];
  {
    GridArray<T> staged(region, Layout::kZOrder, n, dst_offset);
    index_t pos = 0;
    for (int q = 0; q < 4; ++q) {
      quad_offsets[q] = dst_offset + pos;
      quad_a[q] = a_cuts[q + 1] - a_cuts[q];
      quad_b[q] = b_cuts[q + 1] - b_cuts[q];
      detail::route_split(m, a, a_cuts[q], quad_a[q], staged, pos, plan,
                          extent);
      pos += quad_a[q];
      detail::route_split(m, b, b_cuts[q], quad_b[q], staged, pos, plan,
                          extent);
      pos += quad_b[q];
    }
    assert(pos == n);

    // Step 3: recursively merge each quadrant pair. The staged quadrant's
    // A-part and B-part are contiguous sorted runs.
    index_t at = 0;
    for (int q = 0; q < 4; ++q) {
      GridArray<T> qa(region, Layout::kZOrder, quad_a[q], quad_offsets[q]);
      for (index_t i = 0; i < quad_a[q]; ++i) qa[i] = staged[at + i];
      GridArray<T> qb(region, Layout::kZOrder, quad_b[q],
                      quad_offsets[q] + quad_a[q]);
      for (index_t i = 0; i < quad_b[q]; ++i) {
        qb[i] = staged[at + quad_a[q] + i];
      }
      GridArray<T> merged =
          merge2d(m, qa, qb, quad_offsets[q], less, config);
      for (index_t i = 0; i < merged.size(); ++i) {
        out[quad_offsets[q] - dst_offset + i] = merged[i];
      }
      at += quad_a[q] + quad_b[q];
    }
  }
  return out;
}

}  // namespace scm
