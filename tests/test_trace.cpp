// Tests of the network-load tracing module.
#include "spatial/congestion.hpp"

#include "collectives/baselines.hpp"
#include "collectives/scan.hpp"
#include "spatial/machine.hpp"
#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace scm {
namespace {

TEST(LoadMap, SingleMessageRoutesDimensionOrdered) {
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({0, 0}, {2, 3}, Clock{});
  EXPECT_EQ(map.messages(), 1);
  // Row-first path: (0,0) (1,0) (2,0) (2,1) (2,2) (2,3).
  EXPECT_EQ(map.load_at({0, 0}), 1);
  EXPECT_EQ(map.load_at({1, 0}), 1);
  EXPECT_EQ(map.load_at({2, 0}), 1);
  EXPECT_EQ(map.load_at({2, 2}), 1);
  EXPECT_EQ(map.load_at({2, 3}), 1);
  EXPECT_EQ(map.load_at({0, 3}), 0);
  EXPECT_EQ(map.total_load(), 6);
}

TEST(LoadMap, ZeroLengthSendsAreNotTraced) {
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({1, 1}, {1, 1}, Clock{});
  EXPECT_EQ(map.messages(), 0);
  EXPECT_EQ(map.total_load(), 0);
}

TEST(LoadMap, TotalLoadTracksEnergyPlusEndpoints) {
  // Each message of distance d touches d + 1 processors.
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({0, 0}, {0, 5}, Clock{});
  m.send({3, 0}, {0, 0}, Clock{});
  EXPECT_EQ(map.total_load(), (5 + 1) + (3 + 1));
  EXPECT_EQ(map.total_load(), m.metrics().energy + map.messages());
}

TEST(LoadMap, HotspotsAreSortedDescending) {
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  for (int i = 0; i < 5; ++i) m.send({0, 0}, {0, 1}, Clock{});
  m.send({0, 1}, {0, 2}, Clock{});
  const auto spots = map.hotspots(2);
  ASSERT_EQ(spots.size(), 2u);
  EXPECT_EQ(spots[0].second, 6);  // (0,1): 5 arrivals + 1 departure
  EXPECT_EQ(spots[0].first, (Coord{0, 1}));
  EXPECT_GE(spots[0].second, spots[1].second);
}

TEST(LoadMap, DetachStopsRecording) {
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({0, 0}, {0, 1}, Clock{});
  m.set_trace(nullptr);
  m.send({0, 0}, {0, 9}, Clock{});
  EXPECT_EQ(map.messages(), 1);
}

TEST(LoadMap, ClearResetsEverything) {
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({0, 0}, {4, 4}, Clock{});
  map.clear();
  EXPECT_EQ(map.messages(), 0);
  EXPECT_EQ(map.total_load(), 0);
  EXPECT_EQ(map.max_load(), 0);
  EXPECT_EQ(map.heatmap(), "(no traffic)\n");
}

TEST(LoadMap, HeatmapCoversTheBoundingBox) {
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({0, 0}, {7, 7}, Clock{});
  const std::string art = map.heatmap(8);
  EXPECT_NE(art.find("8x8"), std::string::npos);
  EXPECT_NE(art.find('@'), std::string::npos);  // the peak bucket
}

TEST(LoadMap, EmptyMapIsSafeEverywhere) {
  const LoadMap map;
  EXPECT_EQ(map.messages(), 0);
  EXPECT_EQ(map.total_load(), 0);
  EXPECT_EQ(map.max_load(), 0);
  EXPECT_TRUE(map.hotspots(5).empty());
  EXPECT_EQ(map.percentile(50.0), 0);
  EXPECT_EQ(map.percentile(100.0), 0);
  EXPECT_EQ(map.imbalance(), 0.0);
  EXPECT_EQ(map.heatmap(), "(no traffic)\n");
  EXPECT_EQ(map.load_at({0, 0}), 0);
}

TEST(LoadMap, NegativeCoordinatesAreRoutedAndRendered) {
  // The grid is unbounded in all directions; traffic in the negative
  // quadrant must count and render like any other.
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  m.send({-2, -3}, {1, 1}, Clock{});
  EXPECT_EQ(map.messages(), 1);
  EXPECT_EQ(map.load_at({-2, -3}), 1);
  EXPECT_EQ(map.load_at({0, -3}), 1);  // row-first transit
  EXPECT_EQ(map.load_at({1, 0}), 1);
  EXPECT_EQ(map.load_at({1, 1}), 1);
  EXPECT_EQ(map.total_load(), 3 + 4 + 1);  // distance + endpoints
  // The bounding box spans rows [-2, 1] x cols [-3, 1]: 4x5 cells.
  const std::string art = map.heatmap(8);
  EXPECT_NE(art.find("4x5 cells"), std::string::npos);
}

TEST(LoadMap, SingleCellTrafficViaDirectEvent) {
  // A from == to event never comes from the Machine (zero-length sends
  // are free), but the sink must handle the direct call: one unit of
  // load on exactly that cell.
  LoadMap map;
  map.on_message({3, -4}, {3, -4}, 0);
  EXPECT_EQ(map.messages(), 1);
  EXPECT_EQ(map.total_load(), 1);
  EXPECT_EQ(map.max_load(), 1);
  EXPECT_EQ(map.load_at({3, -4}), 1);
  const auto spots = map.hotspots(3);
  ASSERT_EQ(spots.size(), 1u);
  EXPECT_EQ(spots[0].first, (Coord{3, -4}));
  EXPECT_EQ(map.percentile(50.0), 1);
}

TEST(LoadMap, BucketedHeatmapMarksThePeakBucket) {
  // Downsampling a 16x16 box to 4 characters per side buckets 4x4 cells;
  // the bucket holding the hammered cell must render as '@' (the top
  // level) exactly once, and quiet buckets must not. Events are fed to
  // the sink directly: this traffic pattern (50 words parked on one cell)
  // is exactly what the conformance checker rejects from a real Machine.
  LoadMap map;
  for (int i = 0; i < 50; ++i) map.on_message({14, 14}, {15, 15}, 2);
  map.on_message({0, 0}, {15, 0}, 15);
  map.on_message({0, 0}, {0, 15}, 15);
  const std::string art = map.heatmap(4);
  EXPECT_NE(art.find("4x4"), std::string::npos);
  const auto first_at = art.find('@');
  ASSERT_NE(first_at, std::string::npos);
  EXPECT_EQ(art.find('@', first_at + 1), std::string::npos)
      << "only the hot corner bucket may saturate:\n"
      << art;
}

TEST(LoadMap, HotspotsPartialSortMatchesFullOrdering) {
  // hotspots(k) is a partial sort; its prefix must agree with the full
  // descending ordering, and k > touched-cells must return everything.
  Machine m;
  LoadMap map;
  m.set_trace(&map);
  auto vals = random_ints(3, 512, 0, 9);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  (void)scan(m, a, Plus{});

  const auto all = map.hotspots(std::numeric_limits<std::size_t>::max());
  const auto top = map.hotspots(5);
  ASSERT_GE(all.size(), 5u);
  ASSERT_EQ(top.size(), 5u);
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i], all[i]);
  }
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].second, all[i].second);
  }
  EXPECT_EQ(all[0].second, map.max_load());
}

TEST(LoadMap, PercentileUsesNearestRank) {
  // Two cells with load 1 (endpoints of a short hop each) and two with
  // load 2: percentile must follow nearest-rank semantics on the load
  // multiset {1, 1, 2, 2}.
  LoadMap map;
  map.on_message({0, 0}, {0, 0}, 0);  // load 1 at (0,0)
  map.on_message({9, 9}, {9, 9}, 0);  // load 1 at (9,9)
  for (int i = 0; i < 2; ++i) {
    map.on_message({5, 5}, {5, 5}, 0);  // load 2 at (5,5)
    map.on_message({7, 7}, {7, 7}, 0);  // load 2 at (7,7)
  }
  EXPECT_EQ(map.percentile(0.0), 1);    // rank 1
  EXPECT_EQ(map.percentile(50.0), 1);   // rank 2
  EXPECT_EQ(map.percentile(75.0), 2);   // rank 3
  EXPECT_EQ(map.percentile(100.0), 2);  // rank 4 == max
  EXPECT_EQ(map.percentile(100.0), map.max_load());
}

TEST(LoadMap, ZOrderScanHasLowerPeakLoadThanTreeScan) {
  // The motivation for the module: the 1-D binary tree funnels traffic
  // through hub processors, so its peak (bottleneck) load exceeds the 2-D
  // scan's. (The coefficient of variation is not a discriminator here:
  // the tree scan loads fewer processors, evenly among those.)
  const index_t n = 4096;
  auto vals = random_ints(1, static_cast<size_t>(n), 0, 9);
  std::vector<long long> v(vals.begin(), vals.end());

  Machine m1;
  LoadMap scan_map;
  m1.set_trace(&scan_map);
  auto a1 = GridArray<long long>::from_values_square({0, 0}, v);
  (void)scan(m1, a1, Plus{});

  Machine m2;
  LoadMap tree_map;
  m2.set_trace(&tree_map);
  auto a2 = GridArray<long long>::from_values_square({0, 0}, v,
                                                     Layout::kRowMajor);
  (void)tree_scan_1d(m2, a2, Plus{});

  EXPECT_LT(scan_map.max_load(), tree_map.max_load());
  EXPECT_GE(scan_map.imbalance(), 0.0);
  EXPECT_GE(tree_map.imbalance(), 0.0);
}

}  // namespace
}  // namespace scm
