// Tests of the link-level congestion sink (spatial/congestion):
//   * a hand-built fixture whose every message is scripted, so the
//     dimension-ordered link decomposition, per-phase attribution, peaks,
//     percentiles, hotspots, and congested clock are checked against
//     values computed by hand, link by link;
//   * the link-decomposition identity on every Table-1 algorithm and
//     the tree tier: the summed per-link occupancy equals the machine's
//     energy total (a message of Manhattan distance d crosses exactly d
//     links), and the LoadMap's per-cell view matches a hop-by-hop
//     reference walk query for query;
//   * a seeded stream whose runs cross zero and page boundaries, with
//     nested and re-entered phases: every link query and phase bucket
//     against a hop-by-hop per-link reference walk;
//   * zero-length sends, self-sends, and empty batches produce no
//     occupancy — matching the model's "free and unreported" contract;
//   * the batched on_send_bulk path yields byte-identical per-link
//     occupancy to a scalar replay of the same events;
//   * translation invariance at unit level (the fuzzer asserts it on
//     random programs; here it is pinned on a real collective);
//   * exporters: ascii report / heatmap smoke, the Profiler's Chrome
//     counter track parses, and its schema-v3 JSON run report carries the
//     "congestion" section with its CI-checked invariants, under every
//     combination of the load-map and congestion options.
#include "spatial/congestion.hpp"

#include "collectives/baselines.hpp"
#include "collectives/scan.hpp"
#include "select/select.hpp"
#include "sort/sort.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/rng.hpp"
#include "spmv/generators.hpp"
#include "spmv/spmv.hpp"
#include "testing/gen.hpp"
#include "tree/euler.hpp"
#include "tree/lca.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace scm {
namespace {

index_t link_sum(const CongestionMap& cm) {
  index_t sum = 0;
  for (const auto& [link, count] : cm.sorted_links()) sum += count;
  return sum;
}

// ---- Hand-built fixture, reproduced link by link ---------------------------

TEST(CongestionFixture, HandBuiltRunReproducedLinkByLink) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);

  Clock c{};
  {
    Machine::PhaseScope a(m, "cong_a");
    // (0,0)->(2,1), distance 3: rows first (down twice), then one right.
    c = m.send({0, 0}, {2, 1}, c);
    // (0,0)->(2,0), distance 2: retraces both down links of the first
    // message, driving them (and the phase's peak) to 2.
    c = m.send({0, 0}, {2, 0}, c);
    {
      Machine::PhaseScope b(m, "cong_b");
      // (2,1)->(0,1), distance 2: two up links, attributed to the
      // innermost phase only.
      c = m.send({2, 1}, {0, 1}, c);
    }
  }
  // Outside every scope: one left link in the kNoPhase bucket.
  c = m.send({0, 1}, {0, 0}, c);
  m.set_trace(nullptr);

  EXPECT_EQ(cm.messages(), 4);
  EXPECT_EQ(cm.total_occupancy(), 8);
  EXPECT_EQ(cm.total_occupancy(), m.metrics().energy);
  EXPECT_EQ(cm.links(), 6);

  // Every directed link, checked individually.
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {1, 0}}), 2);  // down
  EXPECT_EQ(cm.occupancy(Link{{1, 0}, {2, 0}}), 2);  // down
  EXPECT_EQ(cm.occupancy(Link{{2, 0}, {2, 1}}), 1);  // right
  EXPECT_EQ(cm.occupancy(Link{{2, 1}, {1, 1}}), 1);  // up
  EXPECT_EQ(cm.occupancy(Link{{1, 1}, {0, 1}}), 1);  // up
  EXPECT_EQ(cm.occupancy(Link{{0, 1}, {0, 0}}), 1);  // left
  // Links are directed: the reverse wire carried nothing.
  EXPECT_EQ(cm.occupancy(Link{{1, 0}, {0, 0}}), 0);
  // Routing is rows-first: no horizontal link ever leaves row 0 eastward.
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {0, 1}}), 0);
  // A non-unit "link" is not a link.
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {2, 0}}), 0);

  EXPECT_EQ(cm.max_link_load(), 2);
  EXPECT_EQ(link_sum(cm), 8);

  // Per-phase buckets partition the traffic (innermost attribution).
  const PhaseId id_a = PhaseRegistry::instance().intern("cong_a");
  const PhaseId id_b = PhaseRegistry::instance().intern("cong_b");
  EXPECT_EQ(cm.phase_peak(id_a), 2);
  EXPECT_EQ(cm.phase_peak(id_b), 1);
  EXPECT_EQ(cm.phase_peak(PhaseRegistry::instance().intern("cong_absent")),
            0);
  const auto phases = cm.phase_congestion();
  ASSERT_EQ(phases.size(), 3u);  // first-touch order: a, b, <top>
  EXPECT_EQ(phases[0].phase, id_a);
  EXPECT_EQ(phases[0].occupancy, 5);
  EXPECT_EQ(phases[0].links, 3);
  EXPECT_EQ(phases[0].peak, 2);
  EXPECT_EQ(phases[1].phase, id_b);
  EXPECT_EQ(phases[1].occupancy, 2);
  EXPECT_EQ(phases[1].links, 2);
  EXPECT_EQ(phases[1].peak, 1);
  EXPECT_EQ(phases[2].phase, kNoPhase);
  EXPECT_EQ(phases[2].occupancy, 1);
  EXPECT_EQ(phases[2].links, 1);
  EXPECT_EQ(phases[2].peak, 1);

  // Congested clock = sum of bucket peaks = 2 + 1 + 1; always at least
  // the global bottleneck.
  EXPECT_EQ(cm.congested_clock(), 4);
  EXPECT_GE(cm.congested_clock(), cm.max_link_load());

  // Occupancy distribution over the 6 touched links: {1,1,1,1,2,2}.
  const std::vector<index_t> expected_multiset{1, 1, 1, 1, 2, 2};
  EXPECT_EQ(cm.occupancy_multiset(), expected_multiset);
  EXPECT_EQ(cm.percentile(0.0), 1);    // nearest rank clamps to rank 1
  EXPECT_EQ(cm.percentile(50.0), 1);   // rank ceil(3) -> 1
  EXPECT_EQ(cm.percentile(90.0), 2);   // rank ceil(5.4) -> 2
  EXPECT_EQ(cm.percentile(100.0), 2);  // the maximum

  // Hotspots: the two load-2 links first, coordinate order breaking ties.
  const auto spots = cm.hotspot_links(3);
  ASSERT_EQ(spots.size(), 3u);
  EXPECT_EQ(spots[0].first, (Link{{0, 0}, {1, 0}}));
  EXPECT_EQ(spots[0].second, 2);
  EXPECT_EQ(spots[1].first, (Link{{1, 0}, {2, 0}}));
  EXPECT_EQ(spots[1].second, 2);
  EXPECT_EQ(spots[2].second, 1);
  // Asking for more hotspots than links returns them all.
  EXPECT_EQ(cm.hotspot_links(100).size(), 6u);

  // sorted_links is the canonical byte-comparable form, in Link order.
  const auto all = cm.sorted_links();
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(all[i - 1].first < all[i].first);
  }
}

// ---- Link identity and derived per-cell load, algorithm by algorithm ------

/// The hop-by-hop per-processor walk: one unit of load at the start cell,
/// then one at every cell each unit step enters, rows first. An
/// independent oracle for LoadMap, whose per-cell view is derived from
/// the link map instead; the queries below restate LoadMap's documented
/// semantics over this walk's ordered map.
class ReferenceLoadWalk final : public TraceSink {
 public:
  void on_message(Coord from, Coord to, index_t distance) override {
    (void)distance;
    ++messages;
    Coord cur = from;
    bump(cur);
    while (cur.row != to.row) {
      cur.row += to.row > cur.row ? 1 : -1;
      bump(cur);
    }
    while (cur.col != to.col) {
      cur.col += to.col > cur.col ? 1 : -1;
      bump(cur);
    }
  }

  /// Touched cells with their load, descending by load, ties by (row, col).
  [[nodiscard]] std::vector<std::pair<Coord, index_t>> ranked() const {
    std::vector<std::pair<Coord, index_t>> all;
    for (const auto& [cell, count] : load) {
      all.push_back({Coord{cell.first, cell.second}, count});
    }
    std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    return all;
  }

  [[nodiscard]] index_t total() const {
    index_t sum = 0;
    for (const auto& [cell, count] : load) sum += count;
    return sum;
  }

  [[nodiscard]] index_t percentile(double p) const {
    std::vector<index_t> values;
    for (const auto& [cell, count] : load) values.push_back(count);
    std::sort(values.begin(), values.end());
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p / 100.0 * static_cast<double>(values.size()))));
    return values[rank - 1];
  }

  [[nodiscard]] double imbalance() const {
    const double n = static_cast<double>(load.size());
    const double mean = static_cast<double>(total()) / n;
    double var = 0.0;
    for (const auto& [cell, count] : load) {
      var += (static_cast<double>(count) - mean) *
             (static_cast<double>(count) - mean);
    }
    return std::sqrt(var / n) / mean;
  }

  [[nodiscard]] std::string heatmap(index_t max_side) const {
    index_t r0 = load.begin()->first.first;
    index_t r1 = load.rbegin()->first.first;
    index_t c0 = load.begin()->first.second;
    index_t c1 = c0;
    for (const auto& [cell, count] : load) {
      c0 = std::min(c0, cell.second);
      c1 = std::max(c1, cell.second);
    }
    const index_t rows = r1 - r0 + 1;
    const index_t cols = c1 - c0 + 1;
    const index_t bucket = (std::max(rows, cols) + max_side - 1) / max_side;
    const index_t out_cols = (cols + bucket - 1) / bucket;
    std::map<std::pair<index_t, index_t>, index_t> grid;
    index_t peak = 1;
    for (const auto& [cell, count] : load) {
      index_t& v = grid[{(cell.first - r0) / bucket,
                         (cell.second - c0) / bucket}];
      v = std::max(v, count);
      peak = std::max(peak, v);
    }
    std::ostringstream os;
    os << "load heatmap (" << rows << "x" << cols << " cells, bucket "
       << bucket << "x" << bucket << ", peak " << peak << ")\n";
    for (index_t r = 0; r < (rows + bucket - 1) / bucket; ++r) {
      for (index_t c = 0; c < out_cols; ++c) {
        const auto it = grid.find({r, c});
        const index_t v = it == grid.end() ? 0 : it->second;
        const auto level = static_cast<std::size_t>(
            static_cast<double>(v) / static_cast<double>(peak) * 9.0);
        os << " .:-=+*#%@"[std::min<std::size_t>(9, level)];
      }
      os << "\n";
    }
    return os.str();
  }

  std::map<std::pair<index_t, index_t>, index_t> load;
  index_t messages{0};

 private:
  void bump(Coord c) { ++load[{c.row, c.col}]; }
};

/// Every per-cell query of `lm` against the reference walk of the same
/// stream.
void expect_matches_reference(const LoadMap& lm, const ReferenceLoadWalk& ref) {
  ASSERT_FALSE(ref.load.empty());
  EXPECT_EQ(lm.messages(), ref.messages);
  for (const auto& [cell, count] : ref.load) {
    ASSERT_EQ(lm.load_at(Coord{cell.first, cell.second}), count)
        << "(" << cell.first << "," << cell.second << ")";
  }
  EXPECT_EQ(lm.total_load(), ref.total());
  const auto ranked = ref.ranked();
  EXPECT_EQ(lm.max_load(), ranked.front().second);
  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::numeric_limits<std::size_t>::max()}) {
    const auto n = static_cast<std::ptrdiff_t>(std::min(k, ranked.size()));
    const std::vector<std::pair<Coord, index_t>> want(ranked.begin(),
                                                      ranked.begin() + n);
    EXPECT_EQ(lm.hotspots(k), want) << "k = " << k;
  }
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(lm.percentile(p), ref.percentile(p)) << "p = " << p;
  }
  // A floating-point sum over cells: equal up to summation order.
  EXPECT_NEAR(lm.imbalance(), ref.imbalance(), 1e-12 * ref.imbalance());
  EXPECT_EQ(lm.heatmap(), ref.heatmap(32));
}

void expect_link_identity(const std::function<void(Machine&)>& algorithm) {
  Machine m;
  CongestionMap cm;
  LoadMap lm;
  ReferenceLoadWalk ref;
  FanoutSink fanout({&cm, &lm, &ref});
  m.set_trace(&fanout);
  algorithm(m);
  m.set_trace(nullptr);
  // A run that charged nothing would make the identity vacuous.
  EXPECT_GT(cm.messages(), 0);
  EXPECT_EQ(cm.messages(), m.metrics().messages);
  // The identity: summed link occupancy == summed Manhattan distance ==
  // Metrics::energy — both through the running total and re-summed from
  // the exported per-link view.
  EXPECT_EQ(cm.total_occupancy(), m.metrics().energy);
  EXPECT_EQ(link_sum(cm), m.metrics().energy);
  EXPECT_GE(cm.congested_clock(), cm.max_link_load());
  EXPECT_GT(cm.max_link_load(), 0);
  // Per-cell load is link traffic into the cell plus messages leaving it.
  expect_matches_reference(lm, ref);
}

TEST(CongestionIdentity, Scan) {
  const auto v = random_doubles(1, 256);
  expect_link_identity([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    (void)scan(m, a, Plus{});
  });
}

TEST(CongestionIdentity, ExclusiveScan) {
  const auto v = random_doubles(2, 255);  // non-power-of-4 fill
  expect_link_identity([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    (void)exclusive_scan(m, a, Plus{}, 0.0);
  });
}

TEST(CongestionIdentity, Mergesort2d) {
  const auto v = random_doubles(3, 256);
  expect_link_identity([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)mergesort2d(m, a);
  });
}

TEST(CongestionIdentity, BitonicSort) {
  const auto v = random_doubles(4, 256);
  expect_link_identity([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    bitonic_sort(m, a, std::less<double>{});
  });
}

TEST(CongestionIdentity, SelectRank) {
  const auto v = random_doubles(5, 256);
  expect_link_identity([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)select_rank(m, a, 128, 9);
  });
}

TEST(CongestionIdentity, Spmv) {
  const CooMatrix mat = random_uniform_matrix(64, 128, 2);
  const auto x = random_doubles(6, 64);
  expect_link_identity([&](Machine& m) { (void)spmv(m, mat, x); });
}

TEST(CongestionIdentity, BinomialBaselines) {
  expect_link_identity([](Machine& m) {
    const Rect rect = square_at({0, 0}, 8);
    auto bc = binomial_broadcast(m, rect, Cell<double>{1.0, Clock{}});
    (void)binomial_reduce(m, bc, Plus{});
  });
}

TEST(CongestionIdentity, AnnounceRetire) {
  const auto v = random_doubles(8, 100);
  expect_link_identity([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    auto b = route_permutation(m, a, a.region(), Layout::kRowMajor);
    a.retire(m);
    b.retire(m);
  });
}

TEST(CongestionIdentity, TreeEulerTourAndLca) {
  // The tree tier's LCA walks send scalar messages between the bulk
  // rounds of the tour.
  testing::Rng rng(0x7EE);
  const index_t n = 48;
  const tree::Tree t{
      n, testing::gen_tree(rng, n, testing::TreeShape::kRandomPrufer), 0};
  const tree::DenseTree dt = tree::normalize(t);
  std::vector<std::pair<index_t, index_t>> queries;
  for (index_t i = 0; i < n / 2; ++i) {
    queries.emplace_back(rng.uniform(0, n - 1), rng.uniform(0, n - 1));
  }
  expect_link_identity([&](Machine& m) {
    const tree::EulerTour tour = tree::euler_tour(m, dt, {0, 0});
    (void)tree::lca(m, dt, tour, queries, {0, 0});
  });
}

// ---- Every link query against a hop-by-hop link walk ----------------------

/// The hop-by-hop per-link walk: each unit step of a message, rows first,
/// adds one to its directed link, both globally and in the bucket of the
/// innermost open phase. An independent oracle for CongestionMap, which
/// adds whole runs of links instead; the queries below restate
/// CongestionMap's documented semantics over this walk's ordered maps.
class ReferenceLinkWalk final : public TraceSink {
 public:
  struct Bucket {
    std::map<Link, index_t> links;
    index_t occupancy{0};
  };

  void on_message(Coord from, Coord to, index_t distance) override {
    (void)distance;
    ++ticks;
    longest_run = std::max({longest_run, std::abs(to.row - from.row),
                            std::abs(to.col - from.col)});
    Coord cur = from;
    const auto step = [&](Coord next) {
      const Link link{cur, next};
      ++links[link];
      const PhaseId id = stack.empty() ? kNoPhase : stack.back();
      const auto [it, inserted] = buckets.try_emplace(id);
      if (inserted) order.push_back(id);
      ++it->second.links[link];
      ++it->second.occupancy;
      cur = next;
    };
    while (cur.row != to.row) {
      step(Coord{cur.row + (to.row > cur.row ? 1 : -1), cur.col});
    }
    while (cur.col != to.col) {
      step(Coord{cur.row, cur.col + (to.col > cur.col ? 1 : -1)});
    }
  }

  void on_phase_enter(PhaseId id) override { stack.push_back(id); }
  void on_phase_exit(PhaseId id) override {
    (void)id;
    if (!stack.empty()) stack.pop_back();
  }

  static index_t peak_of(const std::map<Link, index_t>& links) {
    index_t peak = 0;
    for (const auto& [link, count] : links) peak = std::max(peak, count);
    return peak;
  }

  /// Sum over buckets of the bucket's peak link occupancy.
  [[nodiscard]] index_t congested_clock() const {
    index_t clock = 0;
    for (const auto& [id, b] : buckets) clock += peak_of(b.links);
    return clock;
  }

  /// Touched links with their occupancy, descending by occupancy, ties in
  /// Link order.
  [[nodiscard]] std::vector<std::pair<Link, index_t>> ranked() const {
    std::vector<std::pair<Link, index_t>> all(links.begin(), links.end());
    std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    return all;
  }

  [[nodiscard]] std::vector<index_t> multiset() const {
    std::vector<index_t> values;
    for (const auto& [link, count] : links) values.push_back(count);
    std::sort(values.begin(), values.end());
    return values;
  }

  [[nodiscard]] index_t percentile(double p) const {
    const auto values = multiset();
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p / 100.0 * static_cast<double>(values.size()))));
    return values[rank - 1];
  }

  std::map<Link, index_t> links;
  std::map<PhaseId, Bucket> buckets;
  std::vector<PhaseId> order;  ///< first-touch order of buckets
  std::vector<PhaseId> stack;
  std::uint64_t ticks{0};
  index_t longest_run{0};  ///< longest straight run of one message
};

/// A seeded stream of scalar and bulk traffic between endpoints in
/// [-300, 300]^2, half of them on coordinates next to multiples of 64, so
/// runs cross zero and many multiples of 64 and some exceed 128 links.
/// Bulk batches carry zero-length entries. Phases nest, and "ref_a" and
/// the top level are visited more than once, so their buckets accumulate
/// across visits.
void drive_reference_stream(TraceSink& sink) {
  auto rng = make_rng(2026);
  const std::vector<index_t> edges{-300, -257, -256, -129, -128, -65, -64,
                                   -1,   0,    1,    63,   64,   127, 128,
                                   191,  192,  255,  256,  300};
  std::uniform_int_distribution<index_t> any(-300, 300);
  std::uniform_int_distribution<std::size_t> edge(0, edges.size() - 1);
  std::uniform_int_distribution<int> coin(0, 7);
  const auto coordinate = [&] {
    return coin(rng) < 4 ? any(rng) : edges[edge(rng)];
  };
  const auto traffic = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      if (coin(rng) < 3) {
        const Coord from{coordinate(), coordinate()};
        const Coord to{coordinate(), coordinate()};
        if (from != to) sink.on_message(from, to, manhattan(from, to));
        continue;
      }
      std::vector<MessageEvent> batch(static_cast<std::size_t>(coin(rng) + 2));
      for (MessageEvent& e : batch) {
        e.from = Coord{coordinate(), coordinate()};
        e.to = coin(rng) == 0 ? e.from : Coord{coordinate(), coordinate()};
        e.distance = manhattan(e.from, e.to);
      }
      sink.on_send_bulk(batch);
    }
  };
  PhaseRegistry& reg = PhaseRegistry::instance();
  const PhaseId outer = reg.intern("cong_ref_outer");
  const PhaseId a = reg.intern("cong_ref_a");
  const PhaseId b = reg.intern("cong_ref_b");
  traffic(6);
  sink.on_phase_enter(outer);
  traffic(8);
  sink.on_phase_enter(a);
  traffic(10);
  sink.on_phase_exit(a);
  sink.on_phase_enter(b);
  traffic(6);
  sink.on_phase_enter(a);  // nested inside b: a's bucket again
  traffic(4);
  sink.on_phase_exit(a);
  sink.on_phase_exit(b);
  sink.on_phase_enter(a);
  sink.on_phase_exit(a);  // a visit with no traffic
  sink.on_phase_enter(a);
  traffic(10);
  sink.on_phase_exit(a);
  traffic(5);
  sink.on_phase_exit(outer);
  traffic(6);
}

TEST(CongestionReference, SeededStreamMatchesHopByHopLinkWalk) {
  CongestionMap cm;
  LoadMap lm;
  ReferenceLinkWalk ref;
  ReferenceLoadWalk ref_cells;
  FanoutSink fanout({&cm, &lm, &ref, &ref_cells});
  drive_reference_stream(fanout);

  ASSERT_FALSE(ref.links.empty());
  EXPECT_GT(ref.longest_run, 128);
  EXPECT_LT(ref.links.begin()->first.from.row, 0);
  index_t total = 0;
  for (const auto& [link, count] : ref.links) {
    ASSERT_EQ(cm.occupancy(link), count) << link.str();
    // The reverse wire is a different link.
    if (!ref.links.contains(Link{link.to, link.from})) {
      ASSERT_EQ(cm.occupancy(Link{link.to, link.from}), 0) << link.str();
    }
    total += count;
  }
  EXPECT_EQ(cm.messages(), static_cast<index_t>(ref.ticks));
  EXPECT_EQ(cm.total_occupancy(), total);
  EXPECT_EQ(cm.links(), static_cast<index_t>(ref.links.size()));
  const std::vector<std::pair<Link, index_t>> sorted(ref.links.begin(),
                                                     ref.links.end());
  EXPECT_EQ(cm.sorted_links(), sorted);
  EXPECT_EQ(cm.occupancy_multiset(), ref.multiset());
  EXPECT_EQ(cm.max_link_load(), ReferenceLinkWalk::peak_of(ref.links));
  EXPECT_GT(cm.max_link_load(), 1);

  const auto ranked = ref.ranked();
  for (const std::size_t k : {std::size_t{1}, std::size_t{5},
                              std::numeric_limits<std::size_t>::max()}) {
    const auto n = static_cast<std::ptrdiff_t>(std::min(k, ranked.size()));
    const std::vector<std::pair<Link, index_t>> want(ranked.begin(),
                                                     ranked.begin() + n);
    EXPECT_EQ(cm.hotspot_links(k), want) << "k = " << k;
  }
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(cm.percentile(p), ref.percentile(p)) << "p = " << p;
  }

  const auto phases = cm.phase_congestion();
  ASSERT_EQ(phases.size(), ref.order.size());
  ASSERT_EQ(phases.size(), 4u);  // <top>, outer, a, b
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const ReferenceLinkWalk::Bucket& b = ref.buckets.at(ref.order[i]);
    EXPECT_EQ(phases[i].phase, ref.order[i]) << i;
    EXPECT_EQ(phases[i].occupancy, b.occupancy) << i;
    EXPECT_EQ(phases[i].links, static_cast<index_t>(b.links.size())) << i;
    EXPECT_EQ(phases[i].peak, ReferenceLinkWalk::peak_of(b.links)) << i;
    EXPECT_EQ(cm.phase_peak(ref.order[i]), phases[i].peak) << i;
  }
  EXPECT_EQ(cm.congested_clock(), ref.congested_clock());

  expect_matches_reference(lm, ref_cells);
}

// ---- Zero-length sends, self-sends, empty batches --------------------------

TEST(CongestionEdge, FreeEventsProduceNoOccupancy) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  (void)m.send({1, 1}, {1, 1}, Clock{});  // self-send: free, unreported
  m.send_bulk({});                        // empty batch
  std::vector<MessageEvent> zeros(3);
  for (index_t i = 0; i < 3; ++i) {
    zeros[static_cast<size_t>(i)] =
        MessageEvent{{i, i}, {i, i}, 0, Clock{2, 5}, Clock{}};
  }
  m.send_bulk(zeros);  // all-zero-length batch: free, unreported
  m.set_trace(nullptr);

  EXPECT_EQ(cm.messages(), 0);
  EXPECT_EQ(cm.total_occupancy(), 0);
  EXPECT_EQ(cm.links(), 0);
  EXPECT_EQ(cm.max_link_load(), 0);
  EXPECT_EQ(cm.congested_clock(), 0);
  EXPECT_EQ(cm.percentile(99.0), 0);
  EXPECT_TRUE(cm.hotspot_links(5).empty());
  EXPECT_TRUE(cm.sorted_links().empty());
  EXPECT_EQ(cm.heatmap(), "(no traffic)\n");
}

TEST(CongestionEdge, BulkHookSkipsZeroLengthEntriesItself) {
  // Machine never forwards an all-zero batch, but the sink's own bulk
  // hook must also skip zero-length entries mixed into a real batch.
  CongestionMap cm;
  std::vector<MessageEvent> batch(3);
  batch[0] = MessageEvent{{0, 0}, {0, 0}, 0, Clock{}, Clock{}};
  batch[1] = MessageEvent{{0, 0}, {0, 2}, 2, Clock{}, Clock{}};
  batch[2] = MessageEvent{{5, 5}, {5, 5}, 0, Clock{}, Clock{}};
  cm.on_send_bulk(batch);
  cm.on_send_bulk({});
  EXPECT_EQ(cm.messages(), 1);
  EXPECT_EQ(cm.total_occupancy(), 2);
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {0, 1}}), 1);
  EXPECT_EQ(cm.occupancy(Link{{0, 1}, {0, 2}}), 1);
}

// ---- Bulk path vs scalar replay: byte-identical occupancy ------------------

TEST(CongestionBulk, BatchedHookMatchesScalarReplayByteForByte) {
  std::vector<MessageEvent> batch;
  // A mix of directions, overlapping routes, and zero-length entries.
  const std::vector<std::pair<Coord, Coord>> endpoints = {
      {{0, 0}, {3, 2}}, {{3, 2}, {0, 0}}, {{1, 1}, {1, 1}},
      {{2, 0}, {0, 3}}, {{0, 3}, {2, 0}}, {{0, 0}, {3, 2}},
  };
  for (const auto& [from, to] : endpoints) {
    batch.push_back(
        MessageEvent{from, to, manhattan(from, to), Clock{}, Clock{}});
  }

  CongestionMap bulk;
  bulk.on_send_bulk(batch);

  CongestionMap scalar;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    scalar.on_message(e.from, e.to, e.distance);
  }

  EXPECT_EQ(bulk.messages(), scalar.messages());
  EXPECT_EQ(bulk.total_occupancy(), scalar.total_occupancy());
  EXPECT_EQ(bulk.max_link_load(), scalar.max_link_load());
  EXPECT_EQ(bulk.congested_clock(), scalar.congested_clock());
  EXPECT_EQ(bulk.sorted_links(), scalar.sorted_links());
  EXPECT_EQ(bulk.occupancy_multiset(), scalar.occupancy_multiset());
}

// ---- Translation invariance (pinned on a real collective) ------------------

TEST(CongestionMetamorphic, TranslationPreservesMultisetAndPeaks) {
  const auto v = random_doubles(11, 64);
  const auto run = [&](Coord origin) {
    Machine m;
    CongestionMap cm;
    m.set_trace(&cm);
    auto a = GridArray<double>::from_values_square(origin, v);
    a.announce(m);
    (void)scan(m, a, Plus{});
    m.set_trace(nullptr);
    return std::tuple{cm.occupancy_multiset(), cm.max_link_load(),
                      cm.congested_clock()};
  };
  const auto at_origin = run({0, 0});
  const auto shifted = run({7, 5});
  EXPECT_EQ(std::get<0>(at_origin), std::get<0>(shifted));
  EXPECT_EQ(std::get<1>(at_origin), std::get<1>(shifted));
  EXPECT_EQ(std::get<2>(at_origin), std::get<2>(shifted));
}

// ---- clear() / Machine::reset semantics ------------------------------------

TEST(CongestionReset, ClearDropsDataButOpenScopesKeepAttributing) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  {
    Machine::PhaseScope a(m, "cong_survivor");
    (void)m.send({0, 0}, {0, 1}, Clock{});
    m.reset();  // forwards on_reset: recorded data dropped
    EXPECT_EQ(cm.messages(), 0);
    EXPECT_EQ(cm.total_occupancy(), 0);
    EXPECT_EQ(cm.congested_clock(), 0);
    // The mirrored phase stack survived: traffic after the reset still
    // lands in the still-open scope.
    (void)m.send({3, 3}, {4, 3}, Clock{});
  }
  m.set_trace(nullptr);
  const PhaseId id = PhaseRegistry::instance().intern("cong_survivor");
  EXPECT_EQ(cm.phase_peak(id), 1);
  ASSERT_EQ(cm.phase_congestion().size(), 1u);
  EXPECT_EQ(cm.phase_congestion()[0].phase, id);
  EXPECT_EQ(cm.occupancy(Link{{3, 3}, {4, 3}}), 1);
}

TEST(CongestionReset, ResetLinksStartOverAtOne) {
  // The same four links (one per direction) before and after a reset,
  // then one link on a page nothing touched before: storage the reset
  // dropped must not be written or read again.
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  const std::vector<Link> star{Link{{5, 5}, {4, 5}}, Link{{5, 5}, {6, 5}},
                               Link{{5, 5}, {5, 4}}, Link{{5, 5}, {5, 6}}};
  const auto send_star = [&] {
    Machine::PhaseScope scope(m, "cong_reuse_star");
    for (const Link& l : star) (void)m.send(l.from, l.to, Clock{});
  };
  send_star();
  send_star();
  m.reset();
  send_star();
  const Link fresh{{5, 300}, {5, 301}};
  {
    Machine::PhaseScope scope(m, "cong_reuse_fresh");
    (void)m.send(fresh.from, fresh.to, Clock{});
  }
  m.set_trace(nullptr);

  for (const Link& l : star) EXPECT_EQ(cm.occupancy(l), 1) << l.str();
  EXPECT_EQ(cm.occupancy(fresh), 1);
  EXPECT_EQ(cm.links(), 5);
  EXPECT_EQ(cm.total_occupancy(), 5);
  EXPECT_EQ(cm.max_link_load(), 1);
  EXPECT_EQ(cm.congested_clock(), 2);
  const auto phases = cm.phase_congestion();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].phase,
            PhaseRegistry::instance().intern("cong_reuse_star"));
  EXPECT_EQ(phases[0].occupancy, 4);
  EXPECT_EQ(phases[0].links, 4);
  EXPECT_EQ(phases[0].peak, 1);
  EXPECT_EQ(phases[1].phase,
            PhaseRegistry::instance().intern("cong_reuse_fresh"));
  EXPECT_EQ(phases[1].occupancy, 1);
  EXPECT_EQ(phases[1].links, 1);
  EXPECT_EQ(phases[1].peak, 1);
}

TEST(CongestionReset, LoadMapAccumulatesAcrossResetAndSkipsFreeBulkEntries) {
  // LoadMap ignores on_reset, so it accumulates across Machine::reset
  // while the CongestionMap beside it starts over.
  Machine m;
  CongestionMap cm;
  LoadMap lm;
  FanoutSink fanout({&cm, &lm});
  m.set_trace(&fanout);
  (void)m.send({0, 0}, {0, 2}, Clock{});
  m.reset();
  (void)m.send({1, 0}, {1, 1}, Clock{});
  m.set_trace(nullptr);
  EXPECT_EQ(cm.messages(), 1);
  EXPECT_EQ(lm.messages(), 2);
  EXPECT_EQ(lm.total_load(), 3 + 2);
  EXPECT_EQ(lm.load_at({0, 2}), 1);

  // Zero-length entries of a batch are free: no message, no load.
  std::vector<MessageEvent> batch(2);
  batch[0] = MessageEvent{{5, 5}, {5, 5}, 0, Clock{}, Clock{}};
  batch[1] = MessageEvent{{5, 5}, {6, 5}, 1, Clock{}, Clock{}};
  lm.on_send_bulk(batch);
  EXPECT_EQ(lm.messages(), 3);
  EXPECT_EQ(lm.load_at({5, 5}), 1);
  EXPECT_EQ(lm.load_at({6, 5}), 1);
}

// ---- Exporters -------------------------------------------------------------

TEST(CongestionExport, AsciiReportAndHeatmapSummarizeTheRun) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  {
    Machine::PhaseScope a(m, "cong_ascii");
    (void)m.send({0, 0}, {0, 3}, Clock{});
    (void)m.send({0, 0}, {0, 3}, Clock{});
  }
  m.set_trace(nullptr);

  const std::string report = cm.ascii_report();
  EXPECT_NE(report.find("messages 2"), std::string::npos) << report;
  EXPECT_NE(report.find("occupancy 6"), std::string::npos) << report;
  EXPECT_NE(report.find("max link load 2"), std::string::npos) << report;
  EXPECT_NE(report.find("congested clock 2"), std::string::npos) << report;
  EXPECT_NE(report.find("cong_ascii"), std::string::npos) << report;
  EXPECT_NE(report.find("[0,0]->[0,1]"), std::string::npos) << report;

  const std::string map = cm.heatmap();
  EXPECT_NE(map.find("peak 2"), std::string::npos) << map;
  EXPECT_NE(map.find('@'), std::string::npos) << map;  // the peak cell
}

TEST(CongestionExport, HeatmapSideBelowOneRendersOneBucket) {
  // A side below 1 counts as 1: the whole bounding box becomes one
  // bucket at the top level, for both sinks' shared renderer.
  CongestionMap cm;
  LoadMap lm;
  cm.on_message({0, 0}, {0, 2}, 2);
  lm.on_message({0, 0}, {0, 2}, 2);
  EXPECT_EQ(cm.heatmap(0),
            "link heatmap (1x2 cells, max outgoing-link load, bucket 2x2, "
            "peak 1)\n@\n");
  EXPECT_EQ(lm.heatmap(0), "load heatmap (1x3 cells, bucket 3x3, peak 1)\n@\n");
  EXPECT_EQ(cm.heatmap(-4), cm.heatmap(1));
  EXPECT_EQ(lm.heatmap(-4), lm.heatmap(1));
}

TEST(CongestionExport, ChromeCounterTrackParsesAndEndsAtFinalValues) {
  // The track rides the Profiler's phase trace, sampled at every phase
  // transition.
  Machine m;
  Profiler p(Profiler::Options{.congestion = true});
  m.set_trace(&p);
  {
    Machine::PhaseScope a(m, "cong_track_a");
    (void)m.send({0, 0}, {0, 2}, Clock{});
  }
  {
    Machine::PhaseScope b(m, "cong_track_b");
    (void)m.send({0, 0}, {0, 2}, Clock{});
  }
  m.set_trace(nullptr);
  const CongestionMap* cm = p.congestion();
  ASSERT_NE(cm, nullptr);

  const auto doc = util::json::parse(p.chrome_trace_json());
  ASSERT_TRUE(doc.has_value()) << "counter track is not valid JSON";
  const util::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::vector<std::pair<index_t, index_t>> samples;
  for (const util::json::Value& e : events->array) {
    const util::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "C") continue;
    EXPECT_EQ(e.find("name")->string, "link congestion");
    const util::json::Value* args = e.find("args");
    samples.emplace_back(
        static_cast<index_t>(args->find("max_link_load")->number),
        static_cast<index_t>(args->find("congested_clock")->number));
  }
  ASSERT_GE(samples.size(), 2u);
  // Phase transitions sample only when a counter moved; the closing
  // sample is always written.
  for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
    EXPECT_NE(samples[i], samples[i - 1]) << i;
  }
  // The closing sample pins the track at the final totals.
  EXPECT_EQ(samples.back().first, cm->max_link_load());
  EXPECT_EQ(samples.back().second, cm->congested_clock());
}

TEST(CongestionExport, ProfilerReportCarriesSchemaV3CongestionSection) {
  Machine m;
  Profiler p(Profiler::Options{.congestion = true});
  m.set_trace(&p);
  const auto v = random_doubles(12, 64);
  auto a = GridArray<double>::from_values_square({0, 0}, v);
  (void)scan(m, a, Plus{});
  m.set_trace(nullptr);

  ASSERT_NE(p.congestion(), nullptr);
  EXPECT_EQ(p.congestion()->total_occupancy(), p.totals().energy);

  const auto doc = util::json::parse(p.json_report());
  ASSERT_TRUE(doc.has_value()) << "report is not valid JSON";
  EXPECT_EQ(static_cast<int>(doc->find("schema_version")->number),
            Profiler::kSchemaVersion);
  EXPECT_GE(Profiler::kSchemaVersion, 3);

  const util::json::Value* cong = doc->find("congestion");
  ASSERT_NE(cong, nullptr);
  EXPECT_TRUE(cong->find("enabled")->boolean);
  // The invariants CI asserts from shipped artifacts, via the report.
  EXPECT_EQ(static_cast<index_t>(cong->find("total_occupancy")->number),
            m.metrics().energy);
  EXPECT_GE(cong->find("congested_clock")->number,
            cong->find("max_link_load")->number);
  EXPECT_EQ(static_cast<index_t>(cong->find("messages")->number),
            m.metrics().messages);
  ASSERT_NE(cong->find("hotspots"), nullptr);
  EXPECT_FALSE(cong->find("hotspots")->array.empty());
  ASSERT_NE(cong->find("phases"), nullptr);
  EXPECT_FALSE(cong->find("phases")->array.empty());

  // The embedded sink also rides the Chrome phase trace as a counter
  // track on the shared tick axis.
  const auto trace = util::json::parse(p.chrome_trace_json());
  ASSERT_TRUE(trace.has_value());
  int counters = 0;
  for (const util::json::Value& e : trace->find("traceEvents")->array) {
    if (e.find("ph")->string == "C") ++counters;
  }
  EXPECT_GT(counters, 0);
}

TEST(CongestionExport, DisabledSinkReportsEnabledFalse) {
  Machine m;
  Profiler p;  // default options: no congestion map, no load map
  m.set_trace(&p);
  (void)m.send({0, 0}, {0, 1}, Clock{});
  m.set_trace(nullptr);
  EXPECT_EQ(p.congestion(), nullptr);
  EXPECT_EQ(p.load_map(), nullptr);
  const auto doc = util::json::parse(p.json_report());
  ASSERT_TRUE(doc.has_value());
  const util::json::Value* cong = doc->find("congestion");
  ASSERT_NE(cong, nullptr);
  EXPECT_FALSE(cong->find("enabled")->boolean);
  const util::json::Value* load = doc->find("load");
  ASSERT_NE(load, nullptr);
  EXPECT_FALSE(load->find("enabled")->boolean);
}

TEST(CongestionExport, ProfilerOptionCombinationsMatchStandaloneSinks) {
  // Every load_map x congestion combination: each accessor and report
  // section exists exactly when its option is on, and carries the same
  // numbers as a standalone sink attached beside the Profiler.
  const auto v = random_doubles(13, 256);
  for (const bool load_map : {false, true}) {
    for (const bool congestion : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "load_map " << load_map
                                        << ", congestion " << congestion);
      Machine m;
      Profiler p(Profiler::Options{.load_map = load_map,
                                   .congestion = congestion});
      LoadMap lm;
      CongestionMap cm;
      FanoutSink fanout({&p, &lm, &cm});
      m.set_trace(&fanout);
      auto a =
          GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
      (void)mergesort2d(m, a);  // nested phases, bulk and scalar traffic
      m.set_trace(nullptr);

      ASSERT_EQ(p.load_map() != nullptr, load_map);
      ASSERT_EQ(p.congestion() != nullptr, congestion);
      const auto doc = util::json::parse(p.json_report());
      ASSERT_TRUE(doc.has_value());
      const util::json::Value* load = doc->find("load");
      const util::json::Value* cong = doc->find("congestion");
      ASSERT_NE(load, nullptr);
      ASSERT_NE(cong, nullptr);
      EXPECT_EQ(load->find("enabled")->boolean, load_map);
      EXPECT_EQ(cong->find("enabled")->boolean, congestion);

      if (load_map) {
        const LoadMap& mine = *p.load_map();
        EXPECT_EQ(mine.messages(), lm.messages());
        EXPECT_EQ(mine.total_load(), lm.total_load());
        EXPECT_EQ(mine.hotspots(std::numeric_limits<std::size_t>::max()),
                  lm.hotspots(std::numeric_limits<std::size_t>::max()));
        EXPECT_EQ(mine.heatmap(), lm.heatmap());
        const auto number = [&](const char* key) {
          return static_cast<index_t>(load->find(key)->number);
        };
        EXPECT_EQ(number("messages"), lm.messages());
        EXPECT_EQ(number("total_load"), lm.total_load());
        EXPECT_EQ(number("max_load"), lm.max_load());
        EXPECT_EQ(number("p50"), lm.percentile(50.0));
        EXPECT_EQ(number("p95"), lm.percentile(95.0));
        EXPECT_EQ(number("p99"), lm.percentile(99.0));
        std::ostringstream imbalance;
        imbalance << lm.imbalance();
        EXPECT_EQ(load->find("imbalance")->number,
                  std::stod(imbalance.str()));
        const auto spots = lm.hotspots(5);
        const auto& shown = load->find("hotspots")->array;
        ASSERT_EQ(shown.size(), spots.size());
        for (std::size_t i = 0; i < spots.size(); ++i) {
          EXPECT_EQ(static_cast<index_t>(shown[i].find("load")->number),
                    spots[i].second);
          EXPECT_EQ(static_cast<index_t>(shown[i].find("at")->array[0].number),
                    spots[i].first.row);
          EXPECT_EQ(static_cast<index_t>(shown[i].find("at")->array[1].number),
                    spots[i].first.col);
        }
      }
      if (congestion) {
        const CongestionMap& mine = *p.congestion();
        EXPECT_EQ(mine.messages(), cm.messages());
        EXPECT_EQ(mine.sorted_links(), cm.sorted_links());
        EXPECT_EQ(mine.congested_clock(), cm.congested_clock());
        const auto want = cm.phase_congestion();
        const auto got = mine.phase_congestion();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].phase, want[i].phase);
          EXPECT_EQ(got[i].occupancy, want[i].occupancy);
          EXPECT_EQ(got[i].links, want[i].links);
          EXPECT_EQ(got[i].peak, want[i].peak);
        }
        const auto number = [&](const char* key) {
          return static_cast<index_t>(cong->find(key)->number);
        };
        EXPECT_EQ(number("messages"), cm.messages());
        EXPECT_EQ(number("links"), cm.links());
        EXPECT_EQ(number("total_occupancy"), cm.total_occupancy());
        EXPECT_EQ(number("max_link_load"), cm.max_link_load());
        EXPECT_EQ(number("congested_clock"), cm.congested_clock());
        EXPECT_EQ(number("p95"), cm.percentile(95.0));
        EXPECT_EQ(cong->find("phases")->array.size(), want.size());
      }

      // The congestion counter track rides the Chrome phase trace exactly
      // when the congestion section is on.
      const auto trace = util::json::parse(p.chrome_trace_json());
      ASSERT_TRUE(trace.has_value());
      int counters = 0;
      for (const util::json::Value& e : trace->find("traceEvents")->array) {
        if (e.find("ph")->string == "C") ++counters;
      }
      EXPECT_EQ(counters > 0, congestion);
    }
  }
}

}  // namespace
}  // namespace scm
