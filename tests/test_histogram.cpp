// Tests of histogramming / counting sort over the sort + segmented-scan
// pipeline.
#include "sort/histogram.hpp"

#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

namespace scm {
namespace {

TEST(Histogram, CountsRandomKeys) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Machine m;
    const index_t n = 500;
    const index_t buckets = 16;
    auto keys = random_ints(seed, static_cast<size_t>(n), 0, buckets - 1);
    std::vector<index_t> v(keys.begin(), keys.end());
    auto a = GridArray<index_t>::from_values_square({0, 0}, v,
                                                    Layout::kRowMajor);
    GridArray<index_t> counts = histogram(m, a, buckets);
    std::vector<index_t> ref(static_cast<size_t>(buckets), 0);
    for (index_t k : v) ++ref[static_cast<size_t>(k)];
    EXPECT_EQ(counts.values(), ref) << seed;
  }
}

TEST(Histogram, EmptyInputAndMissingBuckets) {
  Machine m;
  GridArray<index_t> empty(Rect{0, 0, 1, 1}, Layout::kRowMajor, 0);
  GridArray<index_t> counts = histogram(m, empty, 4);
  EXPECT_EQ(counts.values(), (std::vector<index_t>{0, 0, 0, 0}));

  // Keys that skip buckets: the skipped buckets stay zero.
  auto a = GridArray<index_t>::from_values_square(
      {0, 0}, std::vector<index_t>{3, 3, 0, 3});
  GridArray<index_t> c2 = histogram(m, a, 5);
  EXPECT_EQ(c2.values(), (std::vector<index_t>{1, 0, 0, 3, 0}));
}

TEST(Histogram, SingleKeyDominates) {
  Machine m;
  std::vector<index_t> v(300, 7);
  auto a = GridArray<index_t>::from_values_square({0, 0}, v);
  GridArray<index_t> counts = histogram(m, a, 8);
  EXPECT_EQ(counts[7].value, 300);
  for (index_t b = 0; b < 7; ++b) EXPECT_EQ(counts[b].value, 0);
}

TEST(Histogram, BucketGridSitsRightOfTheInput) {
  Machine m;
  auto a = GridArray<index_t>::from_values_square(
      {0, 0}, std::vector<index_t>{0, 1, 2, 3});
  GridArray<index_t> counts = histogram(m, a, 4);
  EXPECT_GE(counts.region().col0, a.region().col0 + a.region().cols);
}

TEST(Histogram, RejectsAKeyOutsideTheBuckets) {
  // Key 9 of 4 buckets would index past the bucket array; the refusal
  // comes before anything is charged.
  const auto a = GridArray<index_t>::from_values_square(
      {0, 0}, std::vector<index_t>{1, 9, 2, 9});
  const auto neg = GridArray<index_t>::from_values_square(
      {0, 0}, std::vector<index_t>{1, -1});
  Machine m;
  EXPECT_THROW((void)histogram(m, a, 4), std::invalid_argument);
  EXPECT_THROW((void)histogram(m, neg, 4), std::invalid_argument);
  EXPECT_THROW((void)counting_sort(m, a, 4), std::invalid_argument);
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_TRUE(m.phases().empty());
}

TEST(CountingSort, SortsSmallIntegerKeys) {
  Machine m;
  auto keys = random_ints(9, 200, 0, 6);
  std::vector<index_t> v(keys.begin(), keys.end());
  auto a = GridArray<index_t>::from_values_square({0, 0}, v,
                                                  Layout::kRowMajor);
  GridArray<index_t> sorted = counting_sort(m, a, 7);
  auto ref = v;
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(sorted.values(), ref);
}

}  // namespace
}  // namespace scm
