// Unit tests for the sharded parallel execution engine
// (src/spatial/parallel.*): tiling arithmetic, deterministic shard-merge,
// engine-vs-serial bit-identity, the inline independence guard's safe
// downgrade, and the sharded congestion sink against the serial one. The
// end-to-end three-way proof over every Table-1 algorithm lives in
// tests/test_bulk_equivalence.cpp; these tests pin the individual
// mechanisms.
#include "spatial/parallel.hpp"

#include "spatial/congestion.hpp"
#include "spatial/geometry.hpp"
#include "spatial/independence.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"
#include "spatial/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <vector>

namespace scm {
namespace {

using parallel::BulkAggregate;
using parallel::Config;
using parallel::ScopedParallelEngine;
using parallel::TileCoord;
using parallel::Tiling;

Config small_config(int threads, index_t tile_rows, index_t tile_cols) {
  Config cfg;
  cfg.threads = threads;
  cfg.tile_rows = tile_rows;
  cfg.tile_cols = tile_cols;
  cfg.min_parallel_batch = 1;
  return cfg;
}

// ---- Tiling ---------------------------------------------------------------

TEST(ParallelTiling, FloorDivisionIncludingNegativeCoords) {
  const Tiling t(8, 8, 4);
  EXPECT_EQ(t.tile_of({0, 0}), (TileCoord{0, 0}));
  EXPECT_EQ(t.tile_of({7, 7}), (TileCoord{0, 0}));
  EXPECT_EQ(t.tile_of({8, 0}), (TileCoord{1, 0}));
  EXPECT_EQ(t.tile_of({0, 15}), (TileCoord{0, 1}));
  // Floor division, not truncation: cell (-1,-1) is in tile (-1,-1).
  EXPECT_EQ(t.tile_of({-1, -1}), (TileCoord{-1, -1}));
  EXPECT_EQ(t.tile_of({-8, -9}), (TileCoord{-1, -2}));
  EXPECT_EQ(t.tile_of({-9, 3}), (TileCoord{-2, 0}));
}

TEST(ParallelTiling, BandHelpersAndCellIndex) {
  const Tiling t(8, 8, 4);
  EXPECT_EQ(t.next_row_band(0), 8);
  EXPECT_EQ(t.next_row_band(7), 8);
  EXPECT_EQ(t.next_row_band(8), 16);
  EXPECT_EQ(t.next_row_band(-1), 0);
  EXPECT_EQ(t.next_row_band(-8), 0);
  EXPECT_EQ(t.next_row_band(-9), -8);
  EXPECT_EQ(t.row_band_start(-1), -8);
  EXPECT_EQ(t.col_band_start(13), 8);
  // cell_index is a mask, so it stays in [0, cells_per_tile) for negative
  // coordinates too, and is unique within a tile.
  for (index_t r = -16; r < 16; ++r) {
    for (index_t c = -16; c < 16; ++c) {
      const index_t idx = t.cell_index({r, c});
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, t.cells_per_tile());
    }
  }
}

TEST(ParallelTiling, RoundsTileSidesUpToPowersOfTwo) {
  const Tiling t(5, 12, 3);
  EXPECT_EQ(t.tile_rows(), 8);
  EXPECT_EQ(t.tile_cols(), 16);
  const Tiling unit(1, 1, 2);
  EXPECT_EQ(unit.tile_rows(), 1);
  EXPECT_EQ(unit.tile_cols(), 1);
  EXPECT_EQ(unit.tile_of({3, -3}), (TileCoord{3, -3}));
}

TEST(ParallelTiling, ShardOfIsDeterministicAndInRange) {
  const Tiling t(8, 8, 5);
  for (index_t r = -4; r <= 4; ++r) {
    for (index_t c = -4; c <= 4; ++c) {
      const int s = t.shard_of({r, c});
      ASSERT_GE(s, 0);
      ASSERT_LT(s, t.shards());
      ASSERT_EQ(s, t.shard_of({r, c}));  // stable
    }
  }
  const Tiling single(8, 8, 1);
  EXPECT_EQ(single.shard_of({123, -456}), 0);
}

// ---- Config / environment -------------------------------------------------

TEST(ParallelConfig, FromEnvironment) {
  const auto set = [](const char* k, const char* v) { setenv(k, v, 1); };
  set("SCM_THREADS", "4");
  set("SCM_TILE", "32x16");  // WxH: 32 columns, 16 rows
  set("SCM_PARALLEL_MIN_BATCH", "7");
  const Config cfg = parallel::config_from_env();
  EXPECT_EQ(cfg.threads, 4);
  EXPECT_EQ(cfg.tile_cols, 32);
  EXPECT_EQ(cfg.tile_rows, 16);
  EXPECT_EQ(cfg.min_parallel_batch, 7);
  set("SCM_TILE", "garbage");  // unparseable -> defaults kept
  const Config bad = parallel::config_from_env();
  EXPECT_EQ(bad.tile_rows, Config{}.tile_rows);
  EXPECT_EQ(bad.tile_cols, Config{}.tile_cols);
  unsetenv("SCM_THREADS");
  unsetenv("SCM_TILE");
  unsetenv("SCM_PARALLEL_MIN_BATCH");
  const Config dflt = parallel::config_from_env();
  EXPECT_EQ(dflt.threads, 1);  // default is scalar
}

// ---- BulkAggregate merge --------------------------------------------------

TEST(ParallelAggregate, MergeIsAssociativeCommutativeAndOrderFree) {
  std::mt19937_64 rng(42);
  std::vector<BulkAggregate> parts;
  for (int i = 0; i < 12; ++i) {
    BulkAggregate a;
    a.energy = static_cast<index_t>(rng() % 1000);
    a.messages = static_cast<index_t>(rng() % 100);
    a.max_clock = Clock{static_cast<index_t>(rng() % 50),
                        static_cast<index_t>(rng() % 500)};
    parts.push_back(a);
  }
  EXPECT_EQ(merge(parts[0], parts[1]), merge(parts[1], parts[0]));
  EXPECT_EQ(merge(merge(parts[0], parts[1]), parts[2]),
            merge(parts[0], merge(parts[1], parts[2])));
  // Any fold order over a permuted worker set gives the same result —
  // the algebraic fact the fixed-order phase-boundary merge relies on
  // (fixed order makes the merge deterministic; this makes it exact).
  const BulkAggregate in_order = std::accumulate(
      parts.begin(), parts.end(), BulkAggregate{},
      [](const BulkAggregate& a, const BulkAggregate& b) {
        return merge(a, b);
      });
  std::vector<BulkAggregate> shuffled = parts;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const BulkAggregate permuted = std::accumulate(
      shuffled.begin(), shuffled.end(), BulkAggregate{},
      [](const BulkAggregate& a, const BulkAggregate& b) {
        return merge(a, b);
      });
  EXPECT_EQ(in_order, permuted);
}

TEST(ParallelEngine, SlicePartitionsExactly) {
  const ScopedParallelEngine scoped(small_config(4, 8, 8));
  const parallel::Engine* eng = parallel::engine();
  ASSERT_NE(eng, nullptr);
  for (const std::size_t n : {0ul, 1ul, 3ul, 4ul, 5ul, 1000ul}) {
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (int w = 0; w < eng->threads(); ++w) {
      const auto [begin, end] = eng->slice(n, w);
      EXPECT_EQ(begin, prev_end);  // contiguous, disjoint
      EXPECT_LE(begin, end);
      covered += end - begin;
      prev_end = end;
    }
    EXPECT_EQ(covered, n);
    EXPECT_EQ(prev_end, n);
  }
}

// ---- Engine vs serial bulk: bit-identity ----------------------------------

/// A batch with distinct sources and distinct destinations spanning many
/// tiles, including negative coordinates and one distance-0 entry.
std::vector<MessageEvent> make_batch(index_t n) {
  std::vector<MessageEvent> batch;
  batch.reserve(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    const Coord from{i / 40 - 5, i % 40 - 7};
    // (r, c) -> (3c - 11, 2r + 9) is injective, so destinations are
    // distinct; distances vary from a few cells to several tiles.
    const Coord to{3 * from.col - 11, 2 * from.row + 9};
    MessageEvent e;
    e.from = from;
    e.to = to;
    e.payload = Clock{i % 7, i % 13};
    batch.push_back(e);
  }
  MessageEvent self;  // distance 0, far from the grid above
  self.from = Coord{1000, 1000};
  self.to = self.from;
  batch.push_back(self);
  return batch;
}

struct RunOutput {
  Metrics totals;
  std::map<std::string, Metrics> phases;
  std::vector<MessageEvent> charged;  ///< batch with distance/arrival filled
};

RunOutput run_bulk(const Config* cfg) {
  RunOutput out;
  out.charged = make_batch(400);
  Machine m;
  if (cfg != nullptr) {
    const ScopedParallelEngine scoped(*cfg);
    const Machine::PhaseScope phase(m, "batch");
    m.send_bulk(out.charged);
    EXPECT_GE(parallel::engine()->stats().parallel_batches, 1u)
        << "engine was configured but the batch stayed serial";
  } else {
    const Machine::PhaseScope phase(m, "batch");
    m.send_bulk(out.charged);
  }
  out.totals = m.metrics();
  out.phases = m.phases();
  return out;
}

TEST(ParallelEngine, ChargesBitIdenticallyToSerialBulk) {
  const RunOutput serial = run_bulk(nullptr);
  const Config cfg = small_config(4, 8, 8);
  const RunOutput par = run_bulk(&cfg);
  EXPECT_EQ(serial.totals, par.totals);
  EXPECT_EQ(serial.phases, par.phases);
  // Per-entry outputs (distance, arrival clock) match too: the engine
  // fills them in place exactly as the serial loop does.
  ASSERT_EQ(serial.charged.size(), par.charged.size());
  for (std::size_t i = 0; i < serial.charged.size(); ++i) {
    ASSERT_EQ(serial.charged[i].distance, par.charged[i].distance) << i;
    ASSERT_EQ(serial.charged[i].arrival, par.charged[i].arrival) << i;
  }
}

TEST(ParallelEngine, ExportsInvariantUnderThreadAndTileChoice) {
  const RunOutput serial = run_bulk(nullptr);
  for (const int threads : {2, 3, 4, 8}) {
    for (const index_t tile : {4, 32}) {
      const Config cfg = small_config(threads, tile, tile);
      const RunOutput par = run_bulk(&cfg);
      EXPECT_EQ(serial.totals, par.totals)
          << "threads=" << threads << " tile=" << tile;
      EXPECT_EQ(serial.phases, par.phases)
          << "threads=" << threads << " tile=" << tile;
    }
  }
}

TEST(ParallelEngine, JoinsBirthClocksBitIdentically) {
  std::vector<BirthEvent> batch;
  for (index_t i = 0; i < 300; ++i) {
    batch.push_back(BirthEvent{Coord{i / 20, i % 20},
                               Clock{(i * 7) % 23, (i * 13) % 101}});
  }
  Clock serial{};
  for (const BirthEvent& b : batch) serial = Clock::join(serial, b.clock);
  const ScopedParallelEngine scoped(small_config(4, 8, 8));
  const Clock par = parallel::engine()->join_birth_clocks(batch);
  EXPECT_EQ(serial, par);
}

// ---- Inline guard: decline and degrade ------------------------------------

TEST(ParallelEngine, GuardDeclinesDuplicateDestinations) {
  const ScopedParallelEngine scoped(small_config(4, 8, 8));
  parallel::Engine* eng = parallel::engine();
  ASSERT_NE(eng, nullptr);
  std::vector<MessageEvent> racy(2);
  racy[0].from = Coord{0, 0};
  racy[0].to = Coord{5, 5};
  racy[1].from = Coord{9, 9};
  racy[1].to = Coord{5, 5};  // same destination: unproven batch
  BulkAggregate agg;
  EXPECT_FALSE(eng->charge_send_bulk(racy, agg));
  EXPECT_EQ(eng->stats().downgraded_batches, 1u);
  EXPECT_EQ(eng->stats().parallel_batches, 0u);
  // Under ScopedUnorderedDelivery the batch is exempt — exactly the
  // IndependenceChecker's rule — and charges in parallel.
  {
    const ScopedUnorderedDelivery unordered("test: commutative delivery");
    EXPECT_TRUE(eng->charge_send_bulk(racy, agg));
  }
  EXPECT_EQ(eng->stats().parallel_batches, 1u);
  // A declined epoch leaves no stale stamps: the next clean batch runs.
  std::vector<MessageEvent> clean(2);
  clean[0].from = Coord{0, 0};
  clean[0].to = Coord{5, 5};
  clean[1].from = Coord{9, 9};
  clean[1].to = Coord{6, 5};
  EXPECT_TRUE(eng->charge_send_bulk(clean, agg));
  EXPECT_EQ(agg.messages, 2);
  EXPECT_EQ(agg.energy, manhattan(clean[0].from, clean[0].to) +
                            manhattan(clean[1].from, clean[1].to));
}

TEST(ParallelEngine, MachineDegradesUnprovenBatchToScalar) {
  // The injected write-write conflict would (correctly) fail the global
  // independence checker; mute it — the point here is the engine's safe
  // fallback, whose totals must match the scalar decomposition.
  const ScopedGlobalTraceSuspension mute;
  std::vector<MessageEvent> racy(2);
  racy[0].from = Coord{0, 0};
  racy[0].to = Coord{5, 5};
  racy[1].from = Coord{9, 9};
  racy[1].to = Coord{5, 5};
  Metrics serial_totals;
  {
    Machine m;
    auto copy = racy;
    m.send_bulk(copy);  // bulk-ok: phase-less on purpose, totals-only probe
    serial_totals = m.metrics();
  }
  const ScopedParallelEngine scoped(small_config(4, 8, 8));
  Machine m;
  m.send_bulk(racy);  // bulk-ok: phase-less on purpose, totals-only probe
  EXPECT_EQ(m.metrics(), serial_totals);
  EXPECT_EQ(parallel::engine()->stats().downgraded_batches, 1u);
  EXPECT_EQ(parallel::engine()->stats().parallel_batches, 0u);
}

// ---- Sharded sinks vs serial sinks ----------------------------------------

/// Drives one identical event stream into any sink: unattributed and
/// phase-attributed traffic, scalar and bulk, multi-tile paths, negative
/// coordinates, and distance-0 messages.
void drive_stream(TraceSink& sink) {
  const PhaseId pa = PhaseRegistry::instance().intern("shard-a");
  const PhaseId pb = PhaseRegistry::instance().intern("shard-b");
  sink.on_message({0, 0}, {5, 9}, manhattan({0, 0}, {5, 9}));
  sink.on_message({-3, -7}, {-3, -7}, 0);  // counted, routes nothing
  sink.on_phase_enter(pa);
  auto b1 = make_batch(300);
  for (auto& e : b1) e.distance = manhattan(e.from, e.to);
  sink.on_send_bulk(b1);
  sink.on_phase_enter(pb);
  sink.on_message({10, -10}, {-10, 10}, manhattan({10, -10}, {-10, 10}));
  sink.on_phase_exit(pb);
  std::vector<MessageEvent> b2(3);
  b2[0].from = Coord{-20, -20};
  b2[0].to = Coord{20, 20};
  b2[1].from = Coord{0, 50};
  b2[1].to = Coord{0, -50};
  b2[2].from = Coord{7, 7};
  b2[2].to = Coord{7, 7};  // distance 0 inside a batch
  for (auto& e : b2) e.distance = manhattan(e.from, e.to);
  sink.on_send_bulk(b2);
  sink.on_phase_exit(pa);
}

void expect_congestion_equal(const CongestionMap& serial,
                             const parallel::ShardedCongestionMap& sharded) {
  EXPECT_EQ(serial.messages(), sharded.messages());
  EXPECT_EQ(serial.total_occupancy(), sharded.total_occupancy());
  EXPECT_EQ(serial.links(), sharded.links());
  EXPECT_EQ(serial.max_link_load(), sharded.max_link_load());
  EXPECT_EQ(serial.sorted_links(), sharded.sorted_links());
  EXPECT_EQ(serial.occupancy_multiset(), sharded.occupancy_multiset());
  EXPECT_EQ(serial.congested_clock(), sharded.congested_clock());
  for (const auto& [link, load] : serial.sorted_links()) {
    ASSERT_EQ(load, sharded.occupancy(link)) << link.str();
  }
  const auto sp = serial.phase_congestion();
  const auto pp = sharded.phase_congestion();
  ASSERT_EQ(sp.size(), pp.size());
  for (std::size_t i = 0; i < sp.size(); ++i) {
    EXPECT_EQ(sp[i].phase, pp[i].phase) << i;
    EXPECT_EQ(sp[i].occupancy, pp[i].occupancy) << i;
    EXPECT_EQ(sp[i].links, pp[i].links) << i;
    EXPECT_EQ(sp[i].peak, pp[i].peak) << i;
    EXPECT_EQ(serial.phase_peak(sp[i].phase), sharded.phase_peak(sp[i].phase));
  }
}

TEST(ShardedCongestion, MatchesSerialWithoutEngine) {
  CongestionMap serial;
  parallel::ShardedCongestionMap sharded(small_config(4, 8, 8));
  drive_stream(serial);
  drive_stream(sharded);
  EXPECT_EQ(sharded.parallel_batches(), 0u);  // no engine installed
  expect_congestion_equal(serial, sharded);
}

TEST(ShardedCongestion, MatchesSerialThroughWorkerPool) {
  const Config cfg = small_config(4, 8, 8);
  const ScopedParallelEngine scoped(cfg);
  CongestionMap serial;
  parallel::ShardedCongestionMap sharded(cfg);
  drive_stream(serial);
  drive_stream(sharded);
  EXPECT_GE(sharded.parallel_batches(), 2u);
  EXPECT_GE(sharded.cross_tile_segments(), 1u);  // long paths cross tiles
  expect_congestion_equal(serial, sharded);
}

TEST(ShardedCongestion, ShardCountDoesNotChangeExports) {
  CongestionMap serial;
  drive_stream(serial);
  for (const int threads : {1, 2, 3, 8}) {
    for (const index_t tile : {4, 64}) {
      parallel::ShardedCongestionMap sharded(small_config(threads, tile, tile));
      drive_stream(sharded);
      expect_congestion_equal(serial, sharded);
    }
  }
}

TEST(ShardedCongestion, TilingMismatchFallsBackToSerialPath) {
  // Engine tiled 8x8, sink tiled 16x16: the sink must not hand its shards
  // to a pool whose ownership map disagrees — it applies serially.
  const ScopedParallelEngine scoped(small_config(4, 8, 8));
  CongestionMap serial;
  parallel::ShardedCongestionMap sharded(small_config(4, 16, 16));
  drive_stream(serial);
  drive_stream(sharded);
  EXPECT_EQ(sharded.parallel_batches(), 0u);
  expect_congestion_equal(serial, sharded);
}

TEST(ShardedCongestion, ResetPreservesPhaseStackLikeSerial) {
  const PhaseId pa = PhaseRegistry::instance().intern("shard-reset");
  CongestionMap serial;
  parallel::ShardedCongestionMap sharded(small_config(3, 8, 8));
  for (TraceSink* sink : {static_cast<TraceSink*>(&serial),
                          static_cast<TraceSink*>(&sharded)}) {
    sink->on_phase_enter(pa);
    sink->on_message({0, 0}, {9, 9}, 18);
    sink->on_reset();  // clears counts, keeps the entered phase
    sink->on_message({0, 0}, {3, 0}, 3);
    sink->on_phase_exit(pa);
  }
  expect_congestion_equal(serial, sharded);
  EXPECT_EQ(sharded.messages(), 1);
  EXPECT_EQ(sharded.phase_peak(pa), serial.phase_peak(pa));
  EXPECT_GT(sharded.phase_peak(pa), 0);
}

}  // namespace
}  // namespace scm
