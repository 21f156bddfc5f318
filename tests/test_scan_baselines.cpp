// Tests of the baseline collectives (Sections II-A and IV-C): correctness,
// and the cost separations the paper claims — sequential scan is linear
// depth, the 1-D binary-tree scan pays Theta(n log n) energy, and the
// binomial collectives pay a Theta(log n) energy factor over the quadrant
// collectives.
#include "collectives/baselines.hpp"
#include "collectives/broadcast.hpp"
#include "collectives/reduce.hpp"
#include "collectives/scan.hpp"

#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace scm {
namespace {

std::vector<long long> ref_scan(const std::vector<long long>& v) {
  std::vector<long long> ref(v.size());
  std::inclusive_scan(v.begin(), v.end(), ref.begin());
  return ref;
}

TEST(SequentialScan, MatchesReference) {
  for (index_t n : {1, 2, 10, 64, 100, 256}) {
    Machine m;
    auto vals = random_ints(n, static_cast<size_t>(n), -9, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    auto a = GridArray<long long>::from_values_square({0, 0}, v);
    EXPECT_EQ(sequential_scan(m, a, Plus{}).values(), ref_scan(v)) << n;
  }
}

TEST(SequentialScan, LinearDepthLinearEnergy) {
  Machine m;
  auto vals = random_ints(1, 1024, 0, 9);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  (void)sequential_scan(m, a, Plus{});
  EXPECT_EQ(m.metrics().depth(), 1023);  // Omega(n) depth: one long chain
  EXPECT_LE(m.metrics().energy, 3 * 1024);  // O(n) energy on the Z curve
}

TEST(TreeScan1D, MatchesReference) {
  for (index_t n : {2, 4, 64, 256, 1024}) {
    Machine m;
    auto vals = random_ints(n + 5, static_cast<size_t>(n), -9, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    auto a = GridArray<long long>::from_values_square({0, 0}, v,
                                                      Layout::kRowMajor);
    EXPECT_EQ(tree_scan_1d(m, a, Plus{}).values(), ref_scan(v)) << n;
  }
}

TEST(TreeScan1D, NeedsRoomForItsTreeNotAPowerOfTwo) {
  // The binary tree over 5 elements spans the 8 positions covering them:
  // a 1 x 8 row holds it, a 1 x 5 row does not (its nodes would land at
  // (1, 0) and (1, 1)). The refusal charges nothing.
  const std::vector<long long> v{3, -1, 4, 1, -5};
  Machine m;
  const auto row8 =
      GridArray<long long>::from_values(Rect{0, 0, 1, 8}, Layout::kRowMajor, v);
  EXPECT_EQ(tree_scan_1d(m, row8, Plus{}).values(), ref_scan(v));
  Machine m5;
  const auto row5 =
      GridArray<long long>::from_values(Rect{0, 0, 1, 5}, Layout::kRowMajor, v);
  EXPECT_THROW((void)tree_scan_1d(m5, row5, Plus{}), std::invalid_argument);
  EXPECT_EQ(m5.metrics(), Metrics{});
  EXPECT_TRUE(m5.phases().empty());
}

TEST(TreeScan1D, ResultsStayAtTheInputsProcessors) {
  Machine m;
  GridArray<long long> a(Rect{0, 0, 2, 8}, Layout::kRowMajor, 4, 8);
  for (index_t i = 0; i < 4; ++i) a[i].value = i;
  const GridArray<long long> out = tree_scan_1d(m, a, Plus{});
  EXPECT_EQ(out.values(), (std::vector<long long>{0, 1, 3, 6}));
  for (index_t i = 0; i < a.size(); ++i) EXPECT_EQ(out.coord(i), a.coord(i));
}

TEST(TreeScan1D, PaysLogFactorOverZOrderScan) {
  // Section IV-C: the naive binary-tree scan costs Omega(n log n) energy;
  // the 2-D scan costs O(n). The ratio must grow with n.
  auto ratio = [](index_t n) {
    auto vals = random_ints(9, static_cast<size_t>(n), 0, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    Machine m1;
    auto a1 = GridArray<long long>::from_values_square({0, 0}, v,
                                                       Layout::kRowMajor);
    (void)tree_scan_1d(m1, a1, Plus{});
    Machine m2;
    auto a2 = GridArray<long long>::from_values_square({0, 0}, v);
    (void)scan(m2, a2, Plus{});
    return static_cast<double>(m1.metrics().energy) /
           static_cast<double>(m2.metrics().energy);
  };
  const double r_small = ratio(256);
  const double r_large = ratio(16384);
  EXPECT_GT(r_large, r_small * 1.3);
}

TEST(BinomialBroadcast, DeliversEverywhere) {
  for (const Rect rect : {Rect{0, 0, 8, 8}, Rect{0, 0, 5, 7},
                          Rect{0, 0, 1, 16}}) {
    Machine m;
    GridArray<int> out = binomial_broadcast(m, rect, Cell<int>{5, Clock{}});
    for (index_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].value, 5) << rect.str() << " cell " << i;
    }
  }
}

TEST(BinomialReduce, SumsCorrectly) {
  Machine m;
  auto vals = random_ints(2, 200, -5, 5);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v,
                                                    Layout::kRowMajor);
  EXPECT_EQ(binomial_reduce(m, a, Plus{}).value,
            std::accumulate(v.begin(), v.end(), 0LL));
}

TEST(BinomialCollectives, PayLogFactorOverQuadrantCollectives) {
  // Section II-A: previous O(log n)-depth reduce took Omega(n log n)
  // energy; the quadrant reduce is O(n). The ratio grows with n.
  auto ratio = [](index_t side) {
    const Rect rect{0, 0, side, side};
    Machine m1;
    (void)binomial_broadcast(m1, rect, Cell<int>{1, Clock{}});
    Machine m2;
    (void)broadcast(m2, rect, Cell<int>{1, Clock{}});
    return static_cast<double>(m1.metrics().energy) /
           static_cast<double>(m2.metrics().energy);
  };
  EXPECT_GT(ratio(128), ratio(16) * 1.3);
}

TEST(BinomialCollectives, StillLogDepth) {
  Machine m;
  const Rect rect{0, 0, 64, 64};
  (void)binomial_broadcast(m, rect, Cell<int>{1, Clock{}});
  EXPECT_LE(m.metrics().depth(), 13);  // ceil(log2(4096)) + 1
}

}  // namespace
}  // namespace scm
