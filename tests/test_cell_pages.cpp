// Tests of the sink layer's per-processor table (spatial/cell_pages.hpp):
// a seeded sequence of increments, lookups, walks and clears against a
// std::map that is emptied at every clear, over coordinates that cross
// zero, sit on page edges, and lie beyond +-2^31.
#include "spatial/cell_pages.hpp"

#include "testing/gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace scm {
namespace {

struct CoordLess {
  bool operator()(Coord a, Coord b) const {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  }
};

TEST(CellPages, MatchesMapReference) {
  const index_t big = index_t{1} << 31;
  CellPages<index_t> table;
  std::map<Coord, index_t, CoordLess> ref;
  testing::Rng rng(0xCE11);

  // Columns on both sides of page edges; rows and columns beyond +-2^31.
  // {2^32 + 1, 2} and {1, 2} share a coord_key.
  const std::vector<index_t> edges{-65, -64, -1, 0, 63, 64};
  std::vector<Coord> pool{Coord{big + 5, -big - 7},
                          Coord{-(index_t{1} << 40), 3},
                          Coord{(index_t{1} << 32) + 1, 2},
                          Coord{1, 2},
                          Coord{7, big},
                          Coord{7, -big - 1}};
  for (int i = 0; i < 40; ++i) {
    pool.push_back(Coord{rng.uniform(-300, 300), rng.uniform(-300, 300)});
  }
  const auto cell = [&] {
    const index_t pick = rng.uniform(0, 9);
    if (pick < 4) {
      return pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<index_t>(pool.size()) - 1))];
    }
    if (pick < 7) {
      return Coord{rng.uniform(-300, 300),
                   edges[static_cast<std::size_t>(rng.uniform(0, 5))]};
    }
    return Coord{rng.uniform(-300, 300), rng.uniform(-300, 300)};
  };

  const auto expect_same_walk = [&] {
    std::vector<std::pair<Coord, index_t>> walked;
    table.for_each([&](Coord c, index_t v) { walked.emplace_back(c, v); });
    std::sort(walked.begin(), walked.end(),
              [](const auto& a, const auto& b) {
                return CoordLess{}(a.first, b.first);
              });
    const std::vector<std::pair<Coord, index_t>> want(ref.begin(), ref.end());
    ASSERT_EQ(walked, want);
  };

  int generations = 1;
  int walks = 0;
  index_t restarted = 0;  // cells touched again after a clear
  std::map<Coord, index_t, CoordLess> last;
  for (int step = 0; step < 20000; ++step) {
    const index_t pick = rng.uniform(0, 99);
    if (pick < 70) {
      const Coord c = cell();
      const index_t by = rng.uniform(0, 3);  // 0: a touch that adds nothing
      if (!ref.contains(c) && last.contains(c)) ++restarted;
      table.at(c) += by;
      ref[c] += by;
    } else if (pick < 97) {
      const Coord c = cell();
      const index_t* got = table.find(c);
      const auto it = ref.find(c);
      if (it == ref.end()) {
        ASSERT_EQ(got, nullptr) << c;
      } else {
        ASSERT_NE(got, nullptr) << c;
        ASSERT_EQ(*got, it->second) << c;
      }
    } else if (pick < 98) {
      expect_same_walk();
      ++walks;
    } else {
      expect_same_walk();
      last = std::move(ref);
      ref.clear();
      table.clear();
      ++generations;
      // A clear table finds nothing it held before.
      for (const auto& [c, v] : last) ASSERT_EQ(table.find(c), nullptr) << c;
    }
  }
  expect_same_walk();
  EXPECT_GE(generations, 300);
  EXPECT_GE(walks, 150);
  EXPECT_GT(restarted, 0);
}

}  // namespace
}  // namespace scm
