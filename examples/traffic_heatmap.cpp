// Network-load visualization: where does the energy actually go?
//
// Energy in the Spatial Computer Model is total network load; this demo
// attaches a LoadMap to the machine and renders ASCII congestion heatmaps
// for the energy-optimal 2-D Z-order scan versus the naive 1-D binary-tree
// scan on the same 64 x 64 grid. The Z-order scan's traffic is spread
// almost uniformly; the tree scan funnels through hub processors — the
// Theta(log n) energy gap of Section IV-C made visible.
#include "core/scm.hpp"
#include "spatial/congestion.hpp"
#include "util/profile_session.hpp"

#include <cstdio>

int main(int argc, char** argv) {
  using namespace scm;
  const util::Cli cli(argc, argv);
  util::ProfileSession profile(cli);
  const index_t n = 4096;  // a 64 x 64 subgrid
  auto vals = random_ints(/*seed=*/1, n, 0, 9);
  const std::vector<long long> v(vals.begin(), vals.end());

  {
    Machine m;
    LoadMap map;
    m.set_trace(&map);
    auto a = GridArray<long long>::from_values_square({0, 0}, v);
    (void)scan(m, a, Plus{});
    std::printf("--- 2-D Z-order scan (Lemma IV.3) ---\n");
    std::printf("%s", map.heatmap(32).c_str());
    std::printf(
        "energy=%lld  peak load=%lld  p95=%lld  imbalance=%.2f\n\n",
        static_cast<long long>(m.metrics().energy),
        static_cast<long long>(map.max_load()),
        static_cast<long long>(map.percentile(95.0)), map.imbalance());
  }
  {
    Machine m;
    LoadMap map;
    m.set_trace(&map);
    auto a = GridArray<long long>::from_values_square({0, 0}, v,
                                                      Layout::kRowMajor);
    (void)tree_scan_1d(m, a, Plus{});
    std::printf("--- 1-D binary-tree scan (naive baseline) ---\n");
    std::printf("%s", map.heatmap(32).c_str());
    std::printf(
        "energy=%lld  peak load=%lld  p95=%lld  imbalance=%.2f\n",
        static_cast<long long>(m.metrics().energy),
        static_cast<long long>(map.max_load()),
        static_cast<long long>(map.percentile(95.0)), map.imbalance());
    std::printf("\nhotspots (1-D tree):");
    for (const auto& [coord, load] : map.hotspots(5)) {
      std::printf(" (%lld,%lld)=%lld", static_cast<long long>(coord.row),
                  static_cast<long long>(coord.col),
                  static_cast<long long>(load));
    }
    std::printf("\n");
  }
  return 0;
}
