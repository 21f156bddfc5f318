// Histogramming / counting by key on the spatial grid — a derived
// primitive built from the paper's building blocks, following the same
// sort -> segment-leaders -> segmented-scan pipeline as the SpMV
// (Section VIII): sort the keys, count each run with a segmented (+)-scan
// over ones, and deliver (key, count) pairs to a bucket grid.
//
// Costs: one 2-D Mergesort + one scan + one message per distinct key:
// O(n^{3/2}) energy, O(log^3 n) depth, O(sqrt n) distance.
#pragma once

#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"

#include <stdexcept>
#include <string>
#include <vector>

namespace scm {

namespace detail {

/// Throws std::invalid_argument (naming `who`) unless every key lies in
/// [0, buckets).
inline void require_keys_in_range(const GridArray<index_t>& keys,
                                  index_t buckets, const char* who) {
  for (index_t i = 0; i < keys.size(); ++i) {
    if (keys[i].value < 0 || keys[i].value >= buckets) {
      throw std::invalid_argument(std::string(who) +
                                  ": key outside [0, buckets)");
    }
  }
}

}  // namespace detail

/// Computes the histogram of integer keys in [0, buckets): bucket b of the
/// returned row-major array holds the number of occurrences of key b,
/// delivered to a bucket subgrid right of the input's region. Throws
/// std::invalid_argument, before charging anything, for a key outside
/// [0, buckets).
[[nodiscard]] inline GridArray<index_t> histogram(
    Machine& m, const GridArray<index_t>& keys, index_t buckets) {
  detail::require_keys_in_range(keys, buckets, "histogram");
  Machine::PhaseScope scope(m, "histogram");
  const index_t n = keys.size();
  const Rect bucket_rect =
      square_at({keys.region().row0,
                 keys.region().col0 + keys.region().cols},
                square_side_for(std::max<index_t>(buckets, 1)));
  GridArray<index_t> counts(bucket_rect, Layout::kRowMajor, buckets);
  for (index_t b = 0; b < buckets; ++b) counts[b].value = 0;
  if (n == 0) return counts;

  // Sort the keys (stable, distinct ranks via ids internally).
  GridArray<index_t> sorted = mergesort2d(m, keys);

  // Segment heads: one comparison per neighbour hand-off.
  const std::vector<char> head =
      segment_heads(m, sorted, [](index_t key) { return key; }, n);
  if (n > 1) m.op(n - 1);

  // Segmented count: scan ones per segment; the run's last element holds
  // the count and delivers (key, count) to its bucket.
  GridArray<index_t> z =
      route_permutation(m, sorted, sorted.region(), Layout::kZOrder);
  GridArray<Seg<index_t>> ones(z.region(), Layout::kZOrder, n);
  for (index_t i = 0; i < n; ++i) {
    ones[i] = Cell<Seg<index_t>>{Seg<index_t>{1, head[static_cast<size_t>(i)] != 0},
                                 z[i].clock};
    m.op();
  }
  GridArray<Seg<index_t>> run = segmented_scan(m, ones, Plus{});
  for (index_t i = 0; i < n; ++i) {
    const bool last = i + 1 == n || head[static_cast<size_t>(i + 1)] != 0;
    if (!last) continue;
    const index_t key = z[i].value;
    counts[key] = Cell<index_t>{
        run[i].value.value,
        m.send(z.coord(i), counts.coord(key), run[i].clock)};
  }
  return counts;
}

/// Counting sort for integer keys in [0, buckets): sorts via the histogram
/// pipeline's stable mergesort (the histogram itself is the by-product
/// most callers want; the sort result is returned for completeness).
/// Throws std::invalid_argument, before charging anything, for a key
/// outside [0, buckets).
[[nodiscard]] inline GridArray<index_t> counting_sort(
    Machine& m, const GridArray<index_t>& keys, index_t buckets) {
  detail::require_keys_in_range(keys, buckets, "counting_sort");
  Machine::PhaseScope scope(m, "counting_sort");
  return mergesort2d(m, keys);
}

}  // namespace scm
