// The bulk-charging engine's metrics-identity contract (spatial/bulk_ab):
//   * every Table-1 algorithm produces byte-identical Metrics totals and
//     per-phase records on the bulk charging path and in the scalar replay
//     of its recorded events, with a conformance checker attached and
//     clean;
//   * the A/B harness itself fails when the recording misses events (wrong
//     totals, or a phase only one run has) — a harness that cannot fail
//     proves nothing;
//   * Machine::observe reports exactly the calls that change a record, so
//     the replay reproduces every per-phase max clock;
//   * Machine::send_bulk edge cases: empty batch, all-zero-length batch
//     (free, unreported), call-time phase-set attribution, arrival-clock
//     filling;
//   * GridArray announce/retire (birth_bulk/death_bulk) replay identically.
#include "spatial/bulk_ab.hpp"

#include "collectives/baselines.hpp"
#include "collectives/scan.hpp"
#include "select/select.hpp"
#include "sort/sort.hpp"
#include "spatial/rng.hpp"
#include "spmv/generators.hpp"
#include "spmv/spmv.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace scm {
namespace {

// ---- Table-1 algorithm equivalence ----------------------------------------

void expect_ab_ok(const std::function<void(Machine&)>& algorithm) {
  const AbResult r = run_ab(algorithm);
  EXPECT_TRUE(r.ok()) << r.diff();
  // A run that charged nothing would make the comparison vacuous.
  EXPECT_GT(r.bulk.totals.messages, 0);
  EXPECT_EQ(r.scalar.totals, r.bulk.totals);
  EXPECT_EQ(r.scalar.phases, r.bulk.phases);
  // Per-link occupancy (batched vs replayed congestion sink) must also be
  // byte-identical, and a real algorithm touches at least one link.
  EXPECT_TRUE(r.links_equal);
  EXPECT_EQ(r.scalar.links, r.bulk.links);
  EXPECT_GT(r.bulk.links.size(), 0u);
  EXPECT_EQ(r.scalar.congested_clock, r.bulk.congested_clock);

  // Three-way: the same algorithm under the sharded parallel engine
  // (4 workers, min_parallel_batch 1 so every batch engages it, links
  // through a ShardedCongestionMap) must reproduce every exported number
  // bit-for-bit. Run twice with different tile sizes so both the
  // few-crossings and many-crossings segment decompositions are proven.
  const AbcResult abc = run_abc(algorithm);
  EXPECT_TRUE(abc.ok()) << abc.diff();
  EXPECT_EQ(abc.scalar.totals, abc.parallel.totals);
  EXPECT_EQ(abc.scalar.phases, abc.parallel.phases);
  EXPECT_EQ(abc.scalar.links, abc.parallel.links);
  EXPECT_EQ(abc.scalar.congested_clock, abc.parallel.congested_clock);
  parallel::Config tiny = abc_default_config();
  tiny.threads = 3;
  tiny.tile_rows = 4;
  tiny.tile_cols = 4;
  const AbcResult abc_tiny = run_abc(algorithm, tiny);
  EXPECT_TRUE(abc_tiny.ok()) << abc_tiny.diff();
}

TEST(BulkEquivalence, Scan) {
  const auto v = random_doubles(1, 256);
  expect_ab_ok([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    (void)scan(m, a, Plus{});
  });
}

TEST(BulkEquivalence, ExclusiveScan) {
  const auto v = random_doubles(2, 255);  // non-power-of-4 fill
  expect_ab_ok([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    (void)exclusive_scan(m, a, Plus{}, 0.0);
  });
}

TEST(BulkEquivalence, Mergesort2d) {
  const auto v = random_doubles(3, 256);
  expect_ab_ok([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)mergesort2d(m, a);
  });
}

TEST(BulkEquivalence, BitonicSort) {
  const auto v = random_doubles(4, 256);
  expect_ab_ok([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    bitonic_sort(m, a, std::less<double>{});
  });
}

TEST(BulkEquivalence, SelectRank) {
  const auto v = random_doubles(5, 256);
  expect_ab_ok([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)select_rank(m, a, 128, 9);
  });
}

TEST(BulkEquivalence, Spmv) {
  const CooMatrix mat = random_uniform_matrix(64, 128, 2);
  const auto x = random_doubles(6, 64);
  expect_ab_ok([&](Machine& m) { (void)spmv(m, mat, x); });
}

TEST(BulkEquivalence, BinomialBaselines) {
  expect_ab_ok([](Machine& m) {
    const Rect rect = square_at({0, 0}, 8);
    auto bc = binomial_broadcast(m, rect, Cell<double>{1.0, Clock{}});
    (void)binomial_reduce(m, bc, Plus{});
  });
}

TEST(BulkEquivalence, AnnounceRetire) {
  const auto v = random_doubles(8, 100);
  expect_ab_ok([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    auto b = route_permutation(m, a, a.region(), Layout::kRowMajor);
    a.retire(m);
    b.retire(m);
  });
}

// ---- The harness catches divergence and replays every observe -------------

TEST(BulkAbHarness, CatchesDivergentTotals) {
  // A send the recording never sees — the bulk run charges it, the replay
  // cannot — must be flagged, not silently averaged away.
  const AbResult r = run_ab([](Machine& m) {
    const Clock c = m.send({0, 0}, {0, 1}, Clock{});
    m.set_trace(nullptr);  // the recording misses every later event
    (void)m.send({0, 1}, {0, 2}, c);
  });
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.totals_equal);
  EXPECT_NE(r.diff().find("totals"), std::string::npos) << r.diff();
}

TEST(BulkAbHarness, CatchesPhaseBoundaryDivergence) {
  // Same totals, different attribution: the recording misses a phase whose
  // only event is an observe below the totals' max clock. The grand totals
  // agree, so only the per-phase comparison can catch it.
  const AbResult r = run_ab([](Machine& m) {
    {
      Machine::PhaseScope a(m, "phase_a");
      (void)m.send({0, 0}, {0, 2}, Clock{});
    }
    m.set_trace(nullptr);  // the recording misses every later event
    Machine::PhaseScope b(m, "phase_b");
    m.observe(Clock{1, 1});
  });
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.totals_equal);
  EXPECT_FALSE(r.phases_equal);
  const std::string diff = r.diff();
  EXPECT_NE(diff.find("\"phase_b\": present in bulk only"), diff.npos) << diff;
}

TEST(BulkAbHarness, ReplaysObserveOfAnEarlierPhasesClock) {
  // A phase observes a clock an earlier phase produced: the totals' max
  // clock stays put and only the later phase's rises, so the replay
  // matches only if that observe is reported.
  const AbResult r = run_ab([](Machine& m) {
    Clock c{};
    {
      Machine::PhaseScope produce(m, "produce");
      c = m.send({0, 0}, {0, 4}, Clock{});
      c = m.send({0, 4}, {0, 0}, c);
    }
    Machine::PhaseScope consume(m, "consume");
    (void)m.send({1, 0}, {1, 1}, Clock{});
    m.observe(c);
  });
  EXPECT_TRUE(r.ok()) << r.diff();
  EXPECT_EQ(r.bulk.phases.at("consume").max_clock, (Clock{2, 8}));
  EXPECT_EQ(r.scalar.phases.at("consume").max_clock, (Clock{2, 8}));
}

TEST(BulkAbHarness, ReplaysPhaseTouchedOnlyByObserve) {
  // A phase whose only event is an observe of an already-counted clock:
  // the clock is zero, so the first touch is the only record it changes,
  // and the phase must still appear in both runs.
  const AbResult r = run_ab([](Machine& m) {
    (void)m.send({0, 0}, {0, 2}, Clock{});
    Machine::PhaseScope quiet(m, "quiet");
    m.observe(Clock{});
  });
  EXPECT_TRUE(r.ok()) << r.diff();
  EXPECT_TRUE(r.bulk.phases.contains("quiet"));
  EXPECT_TRUE(r.scalar.phases.contains("quiet"));
}

TEST(BulkAbHarness, CatchesParallelOnlyDivergence) {
  // A fake that charges one extra message only when the parallel engine
  // is installed: the scalar and bulk legs agree, so only the three-way
  // harness can flag it. An ambient engine (e.g. ctest under
  // SCM_THREADS=4) would make all three legs take the extra send, so
  // pin the baseline to scalar; run_abc's parallel leg re-enables it.
  const parallel::ScopedParallelEngine ambient_off{parallel::Config{}};
  const AbcResult r = run_abc([](Machine& m) {
    Clock c = m.send({0, 0}, {0, 1}, Clock{});
    if (parallel::engine() != nullptr) c = m.send({0, 1}, {0, 2}, c);
  });
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.totals_equal);
  EXPECT_EQ(r.scalar.totals, r.bulk.totals);
  EXPECT_NE(r.diff().find("parallel"), std::string::npos) << r.diff();
}

// ---- on_observe ------------------------------------------------------------

/// Collects every on_observe clock.
class ObserveSink final : public TraceSink {
 public:
  void on_message(Coord, Coord, index_t) override {}
  void on_observe(Clock c) override { observed.push_back(c); }

  std::vector<Clock> observed;
};

TEST(Observe, EmitsExactlyWhenARecordChanges) {
  ObserveSink sink;
  Machine m;
  m.set_trace(&sink);
  m.observe(Clock{2, 5});  // the totals' max clock rises
  m.observe(Clock{2, 5});  // no change
  m.observe(Clock{1, 9});  // the totals' distance rises
  m.observe(Clock{2, 9});  // no change: equals the totals' max
  {
    Machine::PhaseScope p(m, "p");
    m.observe(Clock{});      // first touch of "p"
    m.observe(Clock{});      // no change
    m.observe(Clock{1, 1});  // only p's max clock rises
    m.observe(Clock{1, 1});  // no change
    Machine::PhaseScope q(m, "q");
    m.op();              // touches "q" with a zero max clock
    m.observe(Clock{});  // no change
  }
  m.observe(Clock{1, 1});  // no change, no phase active
  EXPECT_EQ(sink.observed, (std::vector<Clock>{{2, 5}, {1, 9}, {}, {1, 1}}));
  m.set_trace(nullptr);
}

TEST(Observe, SendAndBirthsJoinClocksSilentlyAndFanoutForwards) {
  ObserveSink sink;
  FanoutSink fanout({&sink});
  Machine m;
  m.set_trace(&fanout);
  {
    Machine::PhaseScope p(m, "p");
    (void)m.send({0, 0}, {0, 3}, Clock{});
    m.birth({1, 1}, Clock{4, 4});
    const std::vector<BirthEvent> births = {{{2, 2}, Clock{5, 5}}};
    m.birth_bulk(births);
    EXPECT_TRUE(sink.observed.empty());
    EXPECT_EQ(m.metrics().max_clock, (Clock{5, 5}));
    EXPECT_EQ(m.phase("p").max_clock, (Clock{5, 5}));
    m.observe(Clock{6, 6});
  }
  EXPECT_EQ(sink.observed, (std::vector<Clock>{{6, 6}}));
  m.set_trace(nullptr);
}

// ---- send_bulk edge cases --------------------------------------------------

/// Counts bulk events and replayed per-message events.
class CountingSink final : public TraceSink {
 public:
  void on_message(Coord, Coord, index_t) override { ++messages; }
  void on_send_bulk(std::span<const MessageEvent> batch) override {
    ++bulk_events;
    last_batch_size = static_cast<index_t>(batch.size());
    TraceSink::on_send_bulk(batch);  // default replay feeds on_message
  }
  void on_birth(Coord, Clock) override { ++births; }
  void on_death(Coord) override { ++deaths; }

  index_t messages{0};
  index_t bulk_events{0};
  index_t last_batch_size{0};
  index_t births{0};
  index_t deaths{0};
};

TEST(SendBulk, EmptyBatchIsANoOp) {
  CountingSink sink;
  Machine m;
  m.set_trace(&sink);
  m.send_bulk({});
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_EQ(sink.bulk_events, 0);
  EXPECT_EQ(sink.messages, 0);
  m.set_trace(nullptr);
}

TEST(SendBulk, AllZeroLengthBatchIsFreeAndUnreported) {
  CountingSink sink;
  Machine m;
  m.set_trace(&sink);
  std::vector<MessageEvent> batch(3);
  for (int i = 0; i < 3; ++i) {
    batch[static_cast<size_t>(i)] =
        MessageEvent{{i, i}, {i, i}, 0, Clock{2, 5}, Clock{}};
  }
  m.send_bulk(batch);
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_EQ(sink.bulk_events, 0);
  EXPECT_EQ(sink.messages, 0);
  // Zero-length entries still get their arrival clocks (= payload).
  for (const MessageEvent& e : batch) {
    EXPECT_EQ(e.distance, 0);
    EXPECT_EQ(e.arrival, (Clock{2, 5}));
  }
  m.set_trace(nullptr);
}

TEST(SendBulk, FillsDistancesAndArrivalClocks) {
  Machine m;
  std::vector<MessageEvent> batch(2);
  batch[0] = MessageEvent{{0, 0}, {2, 3}, 0, Clock{1, 4}, Clock{}};
  batch[1] = MessageEvent{{1, 1}, {1, 1}, 0, Clock{7, 9}, Clock{}};
  m.send_bulk(batch);
  EXPECT_EQ(batch[0].distance, 5);
  EXPECT_EQ(batch[0].arrival, (Clock{1, 4}.after_hop(5)));
  EXPECT_EQ(batch[1].distance, 0);
  EXPECT_EQ(batch[1].arrival, (Clock{7, 9}));
  EXPECT_EQ(m.metrics().energy, 5);
  EXPECT_EQ(m.metrics().messages, 1);
  EXPECT_EQ(m.metrics().max_clock, (Clock{1, 4}.after_hop(5)));
}

TEST(SendBulk, BatchAttributesToCallTimePhaseSet) {
  // The whole batch belongs to the phase set active at the call — exactly
  // as per-entry sends on a second Machine — and a batch issued between
  // phases belongs to none.
  for (const bool bulk : {false, true}) {
    Machine m;
    std::vector<MessageEvent> batch(2);
    auto charge = [&] {
      batch[0] = MessageEvent{{0, 0}, {0, 1}, 0, Clock{}, Clock{}};
      batch[1] = MessageEvent{{0, 1}, {0, 3}, 0, Clock{}, Clock{}};
      if (bulk) {
        m.send_bulk(batch);
      } else {
        for (const MessageEvent& e : batch) {
          (void)m.send(e.from, e.to, e.payload);
        }
      }
    };
    {
      Machine::PhaseScope inside(m, "inside");
      charge();
    }
    charge();  // outside any phase
    EXPECT_EQ(m.phase("inside").energy, 3) << "bulk=" << bulk;
    EXPECT_EQ(m.phase("inside").messages, 2) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().energy, 6) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().messages, 4) << "bulk=" << bulk;
  }
}

TEST(BirthDeathBulk, ReplayMatchesScalar) {
  // birth_bulk / death_bulk against per-entry birth / death on a second
  // Machine: the same events reach the sink and the same clock is joined.
  const std::vector<BirthEvent> births = {
      {{0, 0}, Clock{1, 2}}, {{0, 1}, Clock{3, 4}}, {{1, 0}, Clock{}}};
  const std::vector<Coord> deaths = {{0, 0}, {0, 1}, {1, 0}};
  for (const bool bulk : {false, true}) {
    CountingSink sink;
    Machine m;
    m.set_trace(&sink);
    if (bulk) {
      m.birth_bulk(births);
      m.death_bulk(deaths);
    } else {
      for (const BirthEvent& b : births) m.birth(b.at, b.clock);
      for (const Coord c : deaths) m.death(c);
    }
    EXPECT_EQ(sink.births, 3) << "bulk=" << bulk;
    EXPECT_EQ(sink.deaths, 3) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().max_clock, (Clock{3, 4})) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().messages, 0) << "bulk=" << bulk;
    m.set_trace(nullptr);
  }
}

TEST(BirthDeathBulk, EmptyBatchesAreNoOps) {
  CountingSink sink;
  Machine m;
  m.set_trace(&sink);
  m.birth_bulk({});
  m.death_bulk({});
  EXPECT_EQ(sink.births, 0);
  EXPECT_EQ(sink.deaths, 0);
  EXPECT_EQ(m.metrics(), Metrics{});
  m.set_trace(nullptr);
}

}  // namespace
}  // namespace scm
