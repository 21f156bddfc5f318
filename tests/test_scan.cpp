// Tests of the energy-optimal Z-order scan (Section IV-C, Lemma IV.3):
// correctness against std::inclusive_scan across sizes, operators, and
// seeds; segmented scans; and the Theta(n) / O(log n) / Theta(sqrt n)
// cost shape.
#include "collectives/scan.hpp"

#include "collectives/baselines.hpp"
#include "core/scm.hpp"
#include "spatial/congestion.hpp"
#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace scm {
namespace {

class ScanSweep
    : public ::testing::TestWithParam<std::tuple<index_t, std::uint64_t>> {};

TEST_P(ScanSweep, MatchesInclusiveScan) {
  const auto [n, seed] = GetParam();
  Machine m;
  auto vals = random_ints(seed, static_cast<size_t>(n), -50, 50);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  GridArray<long long> out = scan(m, a, Plus{});
  std::vector<long long> ref(v.size());
  std::inclusive_scan(v.begin(), v.end(), ref.begin());
  EXPECT_EQ(out.values(), ref) << "n=" << n << " seed=" << seed;
}

TEST_P(ScanSweep, MaxOperator) {
  const auto [n, seed] = GetParam();
  Machine m;
  auto vals = random_ints(seed + 1000, static_cast<size_t>(n), -50, 50);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  GridArray<long long> out = scan(m, a, Max{});
  std::vector<long long> ref(v.size());
  std::inclusive_scan(v.begin(), v.end(), ref.begin(),
                      [](long long x, long long y) { return std::max(x, y); });
  EXPECT_EQ(out.values(), ref);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, ScanSweep,
    ::testing::Combine(::testing::Values<index_t>(1, 2, 3, 4, 5, 15, 16, 17,
                                                  63, 64, 100, 256, 1000,
                                                  1024, 4096),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

// Order-sensitive value for the non-commutativity test below.
struct Interval {
  long long lo;
  long long hi;
  friend bool operator==(const Interval&, const Interval&) = default;
};

struct Compose {
  Interval operator()(const Interval& a, const Interval& b) const {
    return Interval{a.lo, b.hi};  // non-commutative
  }
};

TEST(Scan, NonCommutativeOperatorRespectsOrder) {
  // Interval composition is order-sensitive: scan must combine strictly
  // left to right.
  Machine m;
  std::vector<Interval> v;
  for (long long i = 0; i < 64; ++i) v.push_back({i, i});
  auto a = GridArray<Interval>::from_values_square({0, 0}, v);
  GridArray<Interval> out = scan(m, a, Compose{});
  for (index_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, (Interval{0, i}));
  }
}

TEST(Scan, SegmentedScanMatchesPerSegmentScan) {
  for (std::uint64_t seed : {7u, 8u, 9u}) {
    Machine m;
    auto vals = random_ints(seed, 256, -10, 10);
    std::mt19937_64 rng(seed * 17);
    std::vector<Seg<long long>> sv;
    for (size_t i = 0; i < vals.size(); ++i) {
      sv.push_back({vals[i], i == 0 || rng() % 5 == 0});
    }
    auto a = GridArray<Seg<long long>>::from_values_square({0, 0}, sv);
    GridArray<Seg<long long>> out = segmented_scan(m, a, Plus{});
    long long run = 0;
    for (size_t i = 0; i < sv.size(); ++i) {
      if (sv[i].head) run = 0;
      run += sv[i].value;
      EXPECT_EQ(out[static_cast<index_t>(i)].value.value, run) << i;
    }
  }
}

TEST(Scan, SegmentedScanSingleSegmentEqualsPlainScan) {
  Machine m;
  auto vals = random_ints(11, 64, 0, 9);
  std::vector<Seg<long long>> sv;
  for (size_t i = 0; i < vals.size(); ++i) sv.push_back({vals[i], i == 0});
  auto a = GridArray<Seg<long long>>::from_values_square({0, 0}, sv);
  GridArray<Seg<long long>> out = segmented_scan(m, a, Plus{});
  std::vector<long long> ref(vals.size());
  std::inclusive_scan(vals.begin(), vals.end(), ref.begin());
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(out[static_cast<index_t>(i)].value.value, ref[i]);
  }
}

TEST(Scan, SegmentedMinScanForLabelPropagation) {
  // The graph-components round uses a segmented MIN scan; verify the
  // per-segment running minimum semantics directly.
  Machine m;
  std::vector<Seg<long long>> sv;
  std::mt19937_64 rng(21);
  for (int i = 0; i < 128; ++i) {
    sv.push_back({static_cast<long long>(rng() % 100), i % 9 == 0});
  }
  auto a = GridArray<Seg<long long>>::from_values_square({0, 0}, sv);
  GridArray<Seg<long long>> out = segmented_scan(m, a, Min{});
  long long run = 0;
  for (size_t i = 0; i < sv.size(); ++i) {
    run = sv[i].head ? sv[i].value : std::min(run, sv[i].value);
    EXPECT_EQ(out[static_cast<index_t>(i)].value.value, run) << i;
  }
}

TEST(Scan, SegmentedScanAllHeadsIsIdentity) {
  Machine m;
  std::vector<Seg<long long>> sv;
  for (long long i = 0; i < 32; ++i) sv.push_back({i * 3, true});
  auto a = GridArray<Seg<long long>>::from_values_square({0, 0}, sv);
  GridArray<Seg<long long>> out = segmented_scan(m, a, Plus{});
  for (index_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value.value, i * 3);
  }
}

TEST(Scan, ExclusiveScanShiftsTheInclusiveResult) {
  for (index_t n : {1, 2, 5, 64, 100, 256}) {
    Machine m;
    auto vals = random_ints(static_cast<std::uint64_t>(n),
                            static_cast<size_t>(n), -9, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    auto a = GridArray<long long>::from_values_square({0, 0}, v);
    GridArray<long long> out = exclusive_scan(m, a, Plus{}, 0LL);
    std::vector<long long> ref(v.size());
    std::exclusive_scan(v.begin(), v.end(), ref.begin(), 0LL);
    EXPECT_EQ(out.values(), ref) << n;
  }
}

TEST(Scan, ExclusiveScanKeepsLinearEnergyLogDepth) {
  Machine m;
  auto vals = random_ints(3, 4096, 0, 9);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  (void)exclusive_scan(m, a, Plus{}, 0LL);
  EXPECT_LE(m.metrics().energy, 10 * 4096);
  EXPECT_LE(static_cast<double>(m.metrics().depth()),
            3.0 * std::log2(4096.0) + 2);
}

TEST(Scan, EnergyIsLinear) {
  auto energy_per_element = [](index_t n) {
    Machine m;
    auto vals = random_ints(1, static_cast<size_t>(n), 0, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    auto a = GridArray<long long>::from_values_square({0, 0}, v);
    (void)scan(m, a, Plus{});
    return static_cast<double>(m.metrics().energy) / static_cast<double>(n);
  };
  // Lemma IV.3: energy per element converges to a constant.
  const double e1 = energy_per_element(1024);
  const double e2 = energy_per_element(4096);
  const double e3 = energy_per_element(16384);
  EXPECT_NEAR(e2, e3, 0.4);
  EXPECT_LT(std::abs(e3 - e2), std::abs(e2 - e1) + 0.3);
  EXPECT_LT(e3, 8.0);  // small absolute constant
}

TEST(Scan, DepthIsLogarithmic) {
  for (index_t n : {256, 1024, 4096, 16384}) {
    Machine m;
    auto vals = random_ints(2, static_cast<size_t>(n), 0, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    auto a = GridArray<long long>::from_values_square({0, 0}, v);
    (void)scan(m, a, Plus{});
    EXPECT_LE(static_cast<double>(m.metrics().depth()),
              3.0 * std::log2(static_cast<double>(n)))
        << n;
  }
}

TEST(Scan, DistanceIsOrderSqrtN) {
  for (index_t n : {1024, 4096, 16384}) {
    Machine m;
    auto vals = random_ints(3, static_cast<size_t>(n), 0, 9);
    std::vector<long long> v(vals.begin(), vals.end());
    auto a = GridArray<long long>::from_values_square({0, 0}, v);
    (void)scan(m, a, Plus{});
    EXPECT_LE(static_cast<double>(m.metrics().distance()),
              8.0 * std::sqrt(static_cast<double>(n)))
        << n;
  }
}

// ---- Preconditions and placement -----------------------------------------

TEST(Scan, RejectsATreeThatOverrunsTheRegion) {
  // 5 elements at Z-order offset 11 of a 4 x 4 square: the covering power
  // of four (16) needs positions up to 27, and the up-sweep would store
  // nodes at (0, 4), outside the region. Nothing may be charged.
  Machine m;
  GridArray<long long> a(square_at({0, 0}, 4), Layout::kZOrder, 5, 11);
  EXPECT_THROW((void)scan(m, a, Plus{}), std::invalid_argument);
  EXPECT_THROW((void)exclusive_scan(m, a, Plus{}, 0LL),
               std::invalid_argument);
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_TRUE(m.phases().empty());
}

TEST(Scan, RejectsARowMajorArray) {
  Machine m;
  GridArray<long long> a(square_at({0, 0}, 4), Layout::kRowMajor, 16);
  EXPECT_THROW((void)scan(m, a, Plus{}), std::invalid_argument);
  EXPECT_EQ(m.metrics(), Metrics{});
}

TEST(Scan, ResultsStayAtTheInputsProcessors) {
  // 4 elements at Z-order offset 4 of a 4 x 4 square: input 0 sits at
  // (0, 2), so result 0 must too.
  Machine m;
  GridArray<long long> a(square_at({0, 0}, 4), Layout::kZOrder, 4, 4);
  for (index_t i = 0; i < 4; ++i) a[i].value = i + 1;
  ASSERT_EQ(a.coord(0), (Coord{0, 2}));
  const GridArray<long long> inc = scan(m, a, Plus{});
  const GridArray<long long> exc = exclusive_scan(m, a, Plus{}, 0LL);
  EXPECT_EQ(inc.values(), (std::vector<long long>{1, 3, 6, 10}));
  EXPECT_EQ(exc.values(), (std::vector<long long>{0, 1, 3, 6}));
  EXPECT_EQ(inc.offset(), a.offset());
  EXPECT_EQ(exc.offset(), a.offset());
  for (index_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(inc.coord(i), a.coord(i)) << i;
    EXPECT_EQ(exc.coord(i), a.coord(i)) << i;
  }
}

/// Counts scalar sends and op events, and records every bulk batch's
/// (from, to) pairs.
struct EventLog : TraceSink {
  index_t scalar_sends{0};
  index_t ops{0};
  std::vector<std::vector<std::pair<Coord, Coord>>> batches;
  void on_message(Coord, Coord, index_t) override { ++scalar_sends; }
  void on_op(index_t) override { ++ops; }
  void on_send_bulk(std::span<const MessageEvent> batch) override {
    batches.emplace_back();
    for (const MessageEvent& e : batch) {
      batches.back().push_back({e.from, e.to});
    }
  }
};

TEST(Scan, ExclusiveShiftHopsAlongTheInputsCells) {
  Machine m;
  EventLog rec;
  m.set_trace(&rec);
  GridArray<long long> a(square_at({0, 0}, 4), Layout::kZOrder, 4, 4);
  (void)exclusive_scan(m, a, Plus{}, 0LL);
  // The scan itself sends scalar; the one batch is the shift.
  ASSERT_EQ(rec.batches.size(), 1u);
  ASSERT_EQ(rec.batches[0].size(), 3u);
  for (index_t i = 1; i < a.size(); ++i) {
    EXPECT_EQ(rec.batches[0][static_cast<size_t>(i - 1)],
              std::make_pair(a.coord(i - 1), a.coord(i)))
        << i;
  }
}

// ---- Pinned event streams --------------------------------------------------
//
// The cost_report (totals and every phase) and a digest of the event stream
// of each scan shape, recorded once and never edited. No golden artifact
// pins the send order of underfilled or offset scans, and the critical-path
// witness depends on that order.

/// FNV-1a over every on_send (from, to, payload, arrival), on_op and
/// on_observe, in order.
class StreamDigest final : public TraceSink {
 public:
  void on_message(Coord, Coord, index_t) override {}
  void on_send(const MessageEvent& e) override {
    mix('s');
    mix(e.from.row);
    mix(e.from.col);
    mix(e.to.row);
    mix(e.to.col);
    mix(e.payload.depth);
    mix(e.payload.distance);
    mix(e.arrival.depth);
    mix(e.arrival.distance);
  }
  void on_op(index_t n) override {
    mix('o');
    mix(n);
  }
  void on_observe(Clock c) override {
    mix('b');
    mix(c.depth);
    mix(c.distance);
  }

  std::uint64_t value{14695981039346656037ULL};

 private:
  void mix(index_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      value ^= (static_cast<std::uint64_t>(x) >> (8 * byte)) & 0xFFU;
      value *= 1099511628211ULL;
    }
  }
};

struct PinnedRun {
  std::string report;
  std::uint64_t digest;
};

template <class Run>
PinnedRun pinned_run(Run run) {
  Machine m;
  StreamDigest digest;
  m.set_trace(&digest);
  run(m);
  m.set_trace(nullptr);
  return {"\n" + cost_report(m), digest.value};
}

/// Fills `a` with formula values and non-zero input clocks.
GridArray<long long> with_formula_cells(GridArray<long long> a) {
  for (index_t i = 0; i < a.size(); ++i) {
    a[i] = Cell<long long>{(i * 37 + 11) % 23 - 9,
                           Clock{(i * 5) % 7, (i * 3) % 11}};
  }
  return a;
}

GridArray<long long> formula_square(index_t n) {
  return with_formula_cells(GridArray<long long>(
      square_at({0, 0}, square_side_for(n)), Layout::kZOrder, n));
}

TEST(ScanPinned, ScanShapes) {
  const std::vector<std::pair<index_t, PinnedRun>> want = {
      {1, {R"(
total: energy=0 messages=0 ops=0 depth=0 distance=0
)", 0xCBF29CE484222325ULL}},
      {2, {R"(
total: energy=2 messages=2 ops=3 depth=5 distance=3
  scan: energy=2 messages=2 ops=3 depth=5 distance=3
)", 0xE27C57294982F90FULL}},
      {3, {R"(
total: energy=6 messages=4 ops=6 depth=6 distance=8
  scan: energy=6 messages=4 ops=6 depth=6 distance=8
)", 0xE005E50FB57C82CDULL}},
      {5, {R"(
total: energy=18 messages=11 ops=13 depth=8 distance=13
  scan: energy=18 messages=11 ops=13 depth=8 distance=13
)", 0xFC036E2FAD975999ULL}},
      {16, {R"(
total: energy=55 messages=34 ops=48 depth=13 distance=23
  scan: energy=55 messages=34 ops=48 depth=13 distance=23
)", 0x62E6BE15AF0C53C1ULL}},
      {17, {R"(
total: energy=69 messages=41 ops=53 depth=13 distance=23
  scan: energy=69 messages=41 ops=53 depth=13 distance=23
)", 0xFAC73D084622EF33ULL}},
      {100, {R"(
total: energy=430 messages=239 ops=328 depth=20 distance=51
  scan: energy=430 messages=239 ops=328 depth=20 distance=51
)", 0x51D4586F4DC2BB03ULL}},
      {1000, {R"(
total: energy=4543 messages=2411 ops=3326 depth=28 distance=159
  scan: energy=4543 messages=2411 ops=3326 depth=28 distance=159
)", 0x749FC639980CB66DULL}},
  };
  for (const auto& [n, expected] : want) {
    const PinnedRun got = pinned_run(
        [n](Machine& m) { (void)scan(m, formula_square(n), Plus{}); });
    EXPECT_EQ(got.report, expected.report) << "n=" << n;
    EXPECT_EQ(got.digest, expected.digest) << "n=" << n;
  }
}

TEST(ScanPinned, OffsetScan) {
  const PinnedRun got = pinned_run([](Machine& m) {
    const auto a = with_formula_cells(
        GridArray<long long>(square_at({0, 0}, 4), Layout::kZOrder, 4, 4));
    (void)scan(m, a, Plus{});
  });
  EXPECT_EQ(got.report, R"(
total: energy=8 messages=6 ops=9 depth=7 distance=10
  scan: energy=8 messages=6 ops=9 depth=7 distance=10
)");
  EXPECT_EQ(got.digest, 0x2B89310D9CA80023ULL);
}

TEST(ScanPinned, ExclusiveAndSegmentedScans) {
  const PinnedRun exclusive = pinned_run([](Machine& m) {
    (void)exclusive_scan(m, formula_square(100), Plus{}, 0LL);
  });
  EXPECT_EQ(exclusive.report, R"(
total: energy=614 messages=338 ops=328 depth=21 distance=59
  exclusive_scan: energy=614 messages=338 ops=328 depth=21 distance=59
  scan: energy=430 messages=239 ops=328 depth=20 distance=51
)");
  EXPECT_EQ(exclusive.digest, 0x0F13B2F4B9EEE847ULL);

  const PinnedRun segmented = pinned_run([](Machine& m) {
    const GridArray<long long> src = formula_square(100);
    GridArray<Seg<long long>> a(src.region(), Layout::kZOrder, src.size());
    for (index_t i = 0; i < a.size(); ++i) {
      a[i] = Cell<Seg<long long>>{
          Seg<long long>{src[i].value, i % 7 == 0 || i % 11 == 3},
          src[i].clock};
    }
    (void)segmented_scan(m, a, Plus{});
  });
  EXPECT_EQ(segmented.report, R"(
total: energy=430 messages=239 ops=328 depth=20 distance=51
  scan: energy=430 messages=239 ops=328 depth=20 distance=51
  segmented_scan: energy=430 messages=239 ops=328 depth=20 distance=51
)");
  EXPECT_EQ(segmented.digest, 0x51D4586F4DC2BB03ULL);
}

TEST(ScanPinned, TreeScan1d) {
  const PinnedRun row8 = pinned_run([](Machine& m) {
    (void)tree_scan_1d(m,
                       with_formula_cells(GridArray<long long>(
                           Rect{0, 0, 1, 8}, Layout::kRowMajor, 5)),
                       Plus{});
  });
  EXPECT_EQ(row8.report, R"(
total: energy=21 messages=15 ops=15 depth=9 distance=16
  tree_scan_1d: energy=21 messages=15 ops=15 depth=9 distance=16
)");
  EXPECT_EQ(row8.digest, 0x823311865FEB6A06ULL);

  const PinnedRun row1024 = pinned_run([](Machine& m) {
    (void)tree_scan_1d(m,
                       with_formula_cells(GridArray<long long>(
                           Rect{0, 0, 1, 1024}, Layout::kRowMajor, 1000)),
                       Plus{});
  });
  EXPECT_EQ(row1024.report, R"(
total: energy=11097 messages=3490 ops=3988 depth=33 distance=1519
  tree_scan_1d: energy=11097 messages=3490 ops=3988 depth=33 distance=1519
)");
  EXPECT_EQ(row1024.digest, 0x1F98F60960ECED2FULL);
}

// ---- segment_heads ---------------------------------------------------------

/// The scalar hand-off loop segment_heads replaced, as its five scalar
/// callers wrote it: position i < count receives position i - 1's
/// pre-round clock with one send and one op.
template <class T, class Key>
std::vector<char> scalar_heads(Machine& m, GridArray<T>& a, Key key,
                               index_t count) {
  std::vector<Clock> before(static_cast<size_t>(a.size()));
  for (index_t i = 0; i < a.size(); ++i) {
    before[static_cast<size_t>(i)] = a[i].clock;
  }
  std::vector<char> head(static_cast<size_t>(a.size()), 0);
  for (index_t i = 0; i < count; ++i) {
    if (i == 0) {
      head[0] = 1;
      continue;
    }
    const Clock arrived =
        m.send(a.coord(i - 1), a.coord(i), before[static_cast<size_t>(i - 1)]);
    a[i].clock = Clock::join(a[i].clock, arrived);
    m.op();
    head[static_cast<size_t>(i)] =
        key(a[i].value) != key(a[i - 1].value) ? 1 : 0;
  }
  return head;
}

/// Sorted keys with runs, each element carrying a seeded clock.
GridArray<long long> sorted_keys(std::uint64_t seed, index_t n,
                                 Layout layout) {
  auto vals = random_ints(seed, static_cast<size_t>(n), 0, n / 3);
  std::vector<long long> v(vals.begin(), vals.end());
  std::sort(v.begin(), v.end());
  auto a = GridArray<long long>::from_values_square({3, -2}, v, layout);
  const auto clocks = random_ints(seed + 1, static_cast<size_t>(2 * n), 0, 40);
  for (index_t i = 0; i < n; ++i) {
    a[i].clock = Clock{clocks[static_cast<size_t>(2 * i)],
                       clocks[static_cast<size_t>(2 * i + 1)]};
  }
  return a;
}

TEST(SegmentHeads, MatchesTheScalarHandOffLoop) {
  const auto key = [](long long k) { return k; };
  for (const Layout layout : {Layout::kRowMajor, Layout::kZOrder}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const index_t n : {2, 37, 64}) {
        for (const index_t count : {n, n / 2}) {
          GridArray<long long> ref = sorted_keys(seed, n, layout);
          GridArray<long long> got = ref;
          Machine m_ref;
          CongestionMap links_ref;
          m_ref.set_trace(&links_ref);
          const std::vector<char> want = scalar_heads(m_ref, ref, key, count);
          Machine m;
          CongestionMap links;
          m.set_trace(&links);
          const std::vector<char> heads = segment_heads(m, got, key, count);
          if (count > 1) m.op(count - 1);
          SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n
                                            << " count=" << count);
          EXPECT_EQ(heads, want);
          for (index_t i = 0; i < n; ++i) {
            EXPECT_EQ(got[i].clock, ref[i].clock) << i;
          }
          EXPECT_EQ(m.metrics(), m_ref.metrics());
          EXPECT_EQ(links.sorted_links(), links_ref.sorted_links());
        }
      }
    }
  }
}

TEST(SegmentHeads, ARoundIsOneBatchAndNoOps) {
  GridArray<long long> a = sorted_keys(4, 20, Layout::kZOrder);
  Machine m;
  EventLog events;
  m.set_trace(&events);
  (void)segment_heads(m, a, [](long long k) { return k; }, 17);
  EXPECT_EQ(events.scalar_sends, 0);
  ASSERT_EQ(events.batches.size(), 1u);
  EXPECT_EQ(events.batches[0].size(), 16u);
  EXPECT_EQ(events.ops, 0);
  EXPECT_EQ(m.metrics().messages, 16);
  EXPECT_EQ(m.metrics().local_ops, 0);
}

TEST(SegmentHeads, CountZeroAndOneChargeNothing) {
  for (const index_t count : {0, 1}) {
    GridArray<long long> a = sorted_keys(5, 9, Layout::kRowMajor);
    const GridArray<long long> before = a;
    Machine m;
    EventLog events;
    m.set_trace(&events);
    const std::vector<char> heads =
        segment_heads(m, a, [](long long k) { return k; }, count);
    std::vector<char> want(9, 0);
    want[0] = count > 0 ? 1 : 0;
    EXPECT_EQ(heads, want) << count;
    EXPECT_EQ(m.metrics(), Metrics{}) << count;
    EXPECT_TRUE(events.batches.empty()) << count;
    EXPECT_EQ(events.scalar_sends + events.ops, 0) << count;
    for (index_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].clock, before[i].clock) << i;
    }
  }
}

TEST(SegmentHeads, RejectsACountOutsideTheArray) {
  GridArray<long long> a = sorted_keys(6, 9, Layout::kZOrder);
  Machine m;
  const auto key = [](long long k) { return k; };
  EXPECT_THROW((void)segment_heads(m, a, key, -1), std::invalid_argument);
  EXPECT_THROW((void)segment_heads(m, a, key, 10), std::invalid_argument);
  EXPECT_EQ(m.metrics(), Metrics{});
}

}  // namespace
}  // namespace scm
