// Summary statistics of timing samples: medians, nearest-rank
// percentiles, and the highest percentile a sample set can support.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty set.
[[nodiscard]] inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

/// Mean of the smallest `share` (in (0, 1]) of `xs`, but of at least
/// `min_count` values (or all of them, if fewer); 0 when empty. On a shared
/// host, noise only ever adds time, so the fast tail of many samples
/// repeats far better than their median.
[[nodiscard]] inline double fast_mean(std::vector<double> xs, double share,
                                      std::size_t min_count = 1) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto k = std::clamp<std::size_t>(
      std::max(static_cast<std::size_t>(share *
                                        static_cast<double>(xs.size())),
               min_count),
      1, xs.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) sum += xs[i];
  return sum / static_cast<double>(k);
}

/// Nearest-rank p-th percentile (p in (0, 100]) of `xs`; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(xs.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

/// The highest of the reported percentiles (50, 90, 95, 99, 99.9) that
/// still has at least `min_tail` samples above it among `n` samples, or 0
/// when even the median has fewer (a timing is then reported as a median
/// alone).
[[nodiscard]] inline double highest_supported_percentile(std::size_t n,
                                                         std::size_t min_tail =
                                                             10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const double tail = static_cast<double>(n) * (1.0 - p / 100.0);
    if (tail + 1e-9 >= static_cast<double>(min_tail)) best = p;
  }
  return best;
}

}  // namespace perfbench
