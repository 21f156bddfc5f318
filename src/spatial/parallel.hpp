// Sharded multi-threaded bulk execution for the Spatial Computer Model.
//
// The scalar Machine charges a bulk round with one tight loop; this module
// parallelizes that loop across worker threads without changing a single
// exported number. The license is the batch-independence discipline
// (src/spatial/independence.*): every bulk round is proven race-free
// (distinct sources, distinct destinations), so a batch's entries may be
// charged in any order and merged deterministically. Concretely:
//
//   * The grid is sharded into rectangular power-of-two tiles. A work
//     partitioner keys every message on its *destination* tile and a
//     fixed tile->worker hash, so each destination cell is charged by
//     exactly one worker (Engine::charge_send_bulk pass A bins entry
//     indices into per-(producer, owner) SPSC vectors; a barrier
//     publishes them; pass B charges).
//   * Each worker accumulates into a tile-local BulkAggregate (energy,
//     messages, clock join). Sums are associative and commutative and
//     clock joins are component-wise maxima, so folding the per-worker
//     aggregates in fixed worker order 0..T-1 on the calling thread
//     reproduces the scalar loop's totals bit-for-bit. The Machine then
//     applies the merged aggregate through the exact code path the
//     serial bulk loop uses and emits ONE on_send_bulk, so arbitrary
//     TraceSinks observe an identical event stream.
//   * An epoch-stamped per-tile occupancy guard re-checks the
//     independence contract inline (write-write conflicts, i.e. two
//     entries addressing one destination). Any unproven batch makes the
//     engine *decline* (charge_send_bulk returns false) and the Machine
//     degrades safely to the scalar bulk loop. ScopedUnorderedDelivery
//     exempts batches exactly as the IndependenceChecker does.
//
// Dependent scalar paths (sequential_scan's chained sends, ScanExec, any
// per-message Machine::send) never reach the engine: only send_bulk /
// birth_bulk batches of at least Config::min_parallel_batch entries are
// routed here, everything else stays on the single-threaded path.
//
// ShardedCongestionMap is the mergeable counterpart of the serial
// CongestionMap: per-worker shards, each a CongestionMap, own disjoint
// link sets (keyed by the tile of the link's from-cell). The runs of
// CongestionMap::route split at tile bands into segments, cross-tile
// segments travel per-(producer, consumer) SPSC queues drained in fixed
// producer order, and every export is a fold of sums/maxima over disjoint
// keys — bit-identical to the serial sink (asserted per Table-1 algorithm
// by bulk_ab's three-way harness). Determinism contract: docs/MODEL.md
// "Sharded execution".
#pragma once

#include "spatial/clock.hpp"
#include "spatial/congestion.hpp"
#include "spatial/geometry.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace scm::parallel {

/// Engine configuration. Tile sides are rounded up to powers of two so
/// tile lookup is a shift/mask (C++20 two's-complement semantics make the
/// arithmetic shift a floor division, correct for negative coordinates).
struct Config {
  int threads{1};           ///< <= 1 means the engine is disabled (scalar)
  index_t tile_rows{64};    ///< tile height, rounded up to a power of two
  index_t tile_cols{64};    ///< tile width, rounded up to a power of two
  index_t min_parallel_batch{8192};  ///< smaller batches stay scalar
  bool guard{true};  ///< inline write-write independence guard on/off

  friend bool operator==(const Config&, const Config&) = default;
};

/// Tile coordinates (tile_of maps cell -> tile by floor division).
struct TileCoord {
  index_t row{0};
  index_t col{0};

  friend bool operator==(const TileCoord&, const TileCoord&) = default;
};

/// The tile partition plus the fixed tile->shard ownership hash. Both the
/// Engine and the ShardedCongestionMap carry one; the sink's parallel
/// fast path requires its Tiling to equal the engine's so "only worker w
/// writes shard w" holds by construction.
class Tiling {
 public:
  Tiling() : Tiling(64, 64, 1) {}
  Tiling(index_t tile_rows, index_t tile_cols, int shards);

  [[nodiscard]] index_t tile_rows() const { return tile_rows_; }
  [[nodiscard]] index_t tile_cols() const { return tile_cols_; }
  [[nodiscard]] int shards() const { return shards_; }

  /// Floor division by the (power-of-two) tile sides; exact for negative
  /// coordinates via arithmetic shift.
  [[nodiscard]] TileCoord tile_of(Coord c) const {
    return TileCoord{c.row >> log2_rows_, c.col >> log2_cols_};
  }

  /// Row index of the first row of the *next* tile band below `row`.
  [[nodiscard]] index_t next_row_band(index_t row) const {
    return ((row >> log2_rows_) + 1) << log2_rows_;
  }
  /// First row of the tile band containing `row`.
  [[nodiscard]] index_t row_band_start(index_t row) const {
    return row & ~(tile_rows_ - 1);
  }
  [[nodiscard]] index_t next_col_band(index_t col) const {
    return ((col >> log2_cols_) + 1) << log2_cols_;
  }
  [[nodiscard]] index_t col_band_start(index_t col) const {
    return col & ~(tile_cols_ - 1);
  }

  /// Deterministic (platform-independent) owner shard of a tile: a
  /// splitmix64-style finalizer over the packed tile coordinate, mod the
  /// shard count. Exports never depend on this map (disjoint-key folds
  /// are exact under any assignment); determinism keeps worker-local
  /// diagnostics reproducible run-to-run.
  [[nodiscard]] int shard_of(TileCoord t) const {
    if (shards_ == 1) return 0;
    std::uint64_t h = coord_key(t.row, t.col);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return static_cast<int>(h % static_cast<std::uint64_t>(shards_));
  }

  /// Dense index of a cell within its tile (mask, not modulo, so it is
  /// non-negative for negative coordinates).
  [[nodiscard]] index_t cell_index(Coord c) const {
    return (c.row & (tile_rows_ - 1)) * tile_cols_ + (c.col & (tile_cols_ - 1));
  }
  [[nodiscard]] index_t cells_per_tile() const {
    return tile_rows_ * tile_cols_;
  }

  friend bool operator==(const Tiling&, const Tiling&) = default;

 private:
  index_t tile_rows_{64};
  index_t tile_cols_{64};
  int log2_rows_{6};
  int log2_cols_{6};
  int shards_{1};
};

/// Tile-local accumulator of one worker's share of a send batch. The
/// merged fold over workers reproduces the scalar bulk loop exactly:
/// energy/messages are integer sums and max_clock is a component-wise
/// max, all associative and commutative.
struct BulkAggregate {
  index_t energy{0};
  index_t messages{0};
  Clock max_clock{};

  friend bool operator==(const BulkAggregate&, const BulkAggregate&) = default;
};

/// Associative, commutative merge; `merge(a, b) == merge(b, a)` and any
/// parenthesization of a fold agree (tests/test_parallel.cpp).
[[nodiscard]] inline BulkAggregate merge(const BulkAggregate& a,
                                         const BulkAggregate& b) {
  return BulkAggregate{a.energy + b.energy, a.messages + b.messages,
                       Clock::join(a.max_clock, b.max_clock)};
}

/// Running counters of engine activity (diagnostics, not model costs).
struct EngineStats {
  std::uint64_t parallel_batches{0};   ///< send batches charged in parallel
  std::uint64_t parallel_messages{0};  ///< charged entries in those batches
  std::uint64_t downgraded_batches{0};  ///< guard-declined -> scalar fallback
  std::uint64_t birth_batches{0};       ///< birth batches joined in parallel
};

/// Persistent worker pool + the tile partitioner. One engine serves the
/// whole process (see configure()/engine()); the calling thread is worker
/// 0 and `threads - 1` std::threads are spawned lazily at construction.
/// The Machine stays single-writer: exactly one thread drives a Machine,
/// the engine only parallelizes the arithmetic *inside* one bulk call.
class Engine {
 public:
  explicit Engine(const Config& cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const Tiling& tiling() const { return tiling_; }
  [[nodiscard]] int threads() const { return config_.threads; }

  /// Run `fn(worker)` once per worker id 0..threads-1 (caller is worker
  /// 0) and return when all are done. Workers may call sync() for
  /// multi-pass protocols; every worker must reach the same sync calls.
  void run(const std::function<void(int)>& fn);

  /// Barrier across all workers of the current run().
  void sync() { barrier_.arrive_and_wait(); }

  /// Block partition [begin, end) of `n` items for `worker`.
  [[nodiscard]] std::pair<std::size_t, std::size_t> slice(std::size_t n,
                                                          int worker) const {
    const auto t = static_cast<std::size_t>(config_.threads);
    const auto w = static_cast<std::size_t>(worker);
    return {n * w / t, n * (w + 1) / t};
  }

  /// Charge a send batch in parallel: fills every entry's distance /
  /// arrival in place and returns the merged totals through `out`.
  /// Returns false — charging nothing — when the inline guard finds two
  /// entries addressing one destination (an unproven batch): the caller
  /// falls back to the scalar loop, which charges it semantically
  /// identically and lets the IndependenceChecker report the conflict.
  /// Batches under ScopedUnorderedDelivery are exempt, like the checker.
  [[nodiscard]] bool charge_send_bulk(std::span<MessageEvent> batch,
                                      BulkAggregate& out);

  /// Parallel component-wise-max reduction of a birth batch's clocks.
  [[nodiscard]] Clock join_birth_clocks(std::span<const BirthEvent> batch);

  [[nodiscard]] const EngineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EngineStats{}; }

 private:
  /// Per-tile destination-occupancy stamps for the inline guard. A cell
  /// stamped with the current epoch was already targeted this batch.
  struct GuardTile {
    std::vector<std::uint64_t> stamp;
  };
  /// Per-worker result lane, cache-line padded against false sharing.
  struct alignas(64) Lane {
    BulkAggregate agg{};
    Clock clock{};
    bool conflict{false};
  };

  void worker_loop(int id);

  Config config_;
  Tiling tiling_;

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_{nullptr};
  std::uint64_t generation_{0};
  int pending_{0};
  bool shutdown_{false};
  std::barrier<> barrier_;

  /// Entry-index bins, one vector per (producer, owner) worker pair:
  /// written only by `producer` in pass A, read only by `owner` in pass
  /// B — single-producer single-consumer with the barrier as the
  /// publication point. Capacity persists across batches.
  std::vector<std::vector<std::uint32_t>> bins_;
  std::vector<Lane> lanes_;
  /// Guard state, one map per worker (only that worker touches it).
  std::vector<std::unordered_map<std::uint64_t, GuardTile>> guard_;
  std::uint64_t epoch_{0};

  EngineStats stats_{};
};

/// Parse SCM_THREADS / SCM_TILE=WxH (cols x rows) / SCM_PARALLEL_MIN_BATCH
/// into a Config; unset variables keep the scalar defaults.
[[nodiscard]] Config config_from_env();

/// Install `cfg` as the process-wide engine configuration, (re)building
/// or tearing down the worker pool as needed. threads <= 1 disables the
/// engine. Explicit configuration wins over the environment.
void configure(const Config& cfg);

/// The active configuration (environment-initialized on first query).
[[nodiscard]] const Config& config();

/// The process-wide engine, or nullptr when running scalar. First query
/// initializes from the environment (SCM_THREADS et al.).
[[nodiscard]] Engine* engine();

/// RAII reconfiguration for tests, benches, and the fuzzer's parallel
/// replay cadence: installs `cfg`, restores the previous configuration
/// on destruction.
class ScopedParallelEngine {
 public:
  explicit ScopedParallelEngine(const Config& cfg);
  ~ScopedParallelEngine();

  ScopedParallelEngine(const ScopedParallelEngine&) = delete;
  ScopedParallelEngine& operator=(const ScopedParallelEngine&) = delete;

 private:
  Config saved_;
};

/// Mergeable, shard-per-worker counterpart of CongestionMap. Each shard
/// is a CongestionMap owning the links whose from-cell lies in its tiles,
/// so every export — occupancy totals, per-phase peaks, the congested
/// clock — is a fold of sums/maxima over disjoint key sets: exact under
/// any worker completion order, and bit-identical to the serial
/// CongestionMap on the same stream (the three-way bulk_ab harness
/// asserts this per algorithm). Report-time extras (heatmaps, counter
/// samples, Chrome export) stay on the serial sink; this one is the
/// execution-scale accumulator.
class ShardedCongestionMap final : public TraceSink {
 public:
  using PhaseCongestion = CongestionMap::PhaseCongestion;

  explicit ShardedCongestionMap(const Config& cfg = config());

  // TraceSink hooks (same stream contract as CongestionMap).
  void on_message(Coord from, Coord to, index_t distance) override;
  void on_send_bulk(std::span<const MessageEvent> batch) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  void on_reset() override;

  // Exports, each bit-identical to the serial CongestionMap's.
  [[nodiscard]] index_t messages() const { return messages_; }
  [[nodiscard]] index_t total_occupancy() const;
  [[nodiscard]] index_t links() const;
  [[nodiscard]] index_t occupancy(Link link) const;
  [[nodiscard]] index_t max_link_load() const;
  [[nodiscard]] std::vector<std::pair<Link, index_t>> sorted_links() const;
  [[nodiscard]] std::vector<index_t> occupancy_multiset() const;
  [[nodiscard]] std::vector<PhaseCongestion> phase_congestion() const;
  [[nodiscard]] index_t phase_peak(PhaseId id) const;
  [[nodiscard]] index_t congested_clock() const;

  [[nodiscard]] const Tiling& tiling() const { return tiling_; }
  /// Segments shipped across tiles through the SPSC queues so far.
  [[nodiscard]] std::uint64_t cross_tile_segments() const {
    return cross_tile_segments_;
  }
  /// Batches applied through the worker pool (vs the serial path).
  [[nodiscard]] std::uint64_t parallel_batches() const {
    return parallel_batches_;
  }

  void clear();

 private:
  using Run = CongestionMap::Run;

  /// Records the innermost phase as a bucket with traffic (first-touch
  /// order, like CongestionMap's).
  void register_bucket();
  [[nodiscard]] int owner(Coord c) const {
    return tiling_.shard_of(tiling_.tile_of(c));
  }
  /// Split the runs of one charged message at tile bands and hand each
  /// piece, which lies in exactly one tile, to `fn(owner_shard, segment)`.
  template <typename Fn>
  void for_each_segment(Coord from, Coord to, Fn&& fn) const;
  void apply_serial(Coord from, Coord to);
  void apply_parallel(Engine& eng, std::span<const MessageEvent> batch);

  Tiling tiling_;
  /// One CongestionMap per shard; each sees every phase transition, so
  /// its buckets follow the machine's innermost phase.
  std::vector<CongestionMap> shards_;
  /// Cross-tile segment queues, one per (producer, consumer) pair:
  /// written only by `producer` before the barrier, drained only by
  /// `consumer` after it, in fixed producer order.
  std::vector<std::vector<Run>> queues_;
  std::vector<std::uint64_t> cross_;  ///< per-producer cross-tile counts

  index_t messages_{0};
  std::vector<PhaseId> bucket_order_;  ///< first-touch order of buckets
  std::unordered_set<PhaseId> seen_buckets_;
  std::uint64_t parallel_batches_{0};
  std::uint64_t cross_tile_segments_{0};
};

}  // namespace scm::parallel
