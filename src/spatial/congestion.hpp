// Link-level congestion and per-processor load for the Spatial Computer
// Model.
//
// The SCM prices a message only by its Manhattan distance: bandwidth is
// modelled as unbounded and no two messages ever contend. Real spatial
// hardware (the paper's WSE target included) stalls on *link* contention —
// mapping-evaluation work (Sethi; Wu & Liu) shows that placement-dependent
// congestion, not raw distance, dominates real mapping quality. This
// module observes traffic at the network's actual unit of contention, the
// directed link between adjacent processors.
//
// The CongestionMap TraceSink decomposes every charged message under
// deterministic dimension-ordered routing into at most two straight runs
// of unit links — the vertical run at the source column, then the
// horizontal run at the destination row — and tracks:
//
//   * per-link occupancy totals — a message of Manhattan distance d
//     traverses exactly d links, so the summed occupancy over all links
//     equals the summed message distance, i.e. Metrics::energy (the
//     paper's energy metric IS total link traversals);
//   * per-phase occupancy maps, attributed to the *innermost* active
//     phase (interned PhaseIds, like the profiler) so the buckets
//     partition the traffic;
//   * per-phase and global peak link load — the congestion-depth proxy
//     the cited mapping papers optimize: traffic on one link serializes,
//     so a phase's peak link occupancy lower-bounds its completion time
//     on bandwidth-limited hardware.
//
// Link counters are stored in strip pages, one layout for the global map
// and every phase bucket. A page holds 64 consecutive links of one
// direction along one row (horizontal links) or one column (vertical
// links). A run is added page by page with plain array increments; the
// page is found with one hash lookup, or none when it is the last page
// used in that direction, and the peaks and the congested clock update
// once per run. A touched page costs 512 bytes of counters plus one
// hash-table entry, however few of its links carry traffic.
//
// On top of the per-phase peaks sits an **opt-in diagnostic metric**,
// congested_clock() = sum over phase buckets of the bucket's peak link
// occupancy. It is deliberately NOT part of Metrics and never feeds the
// conformance checker: the paper's model has exactly three costs (energy,
// depth, distance) and the checker stays authoritative for them. The
// congested clock is a fourth, strictly separate axis for comparing
// algorithms on congestion robustness (docs/MODEL.md).
//
// The LoadMap sink shows the same traffic per processor. It walks no
// route of its own: load(c) = messages sent from c + link traversals into
// c, so it keeps a CongestionMap plus a per-cell count of sent messages
// (in the sink layer's cell table, spatial/cell_pages.hpp) and derives
// every per-cell query from the two.
//
// Exporters: ASCII link and load heatmaps and a summary report here. The
// Profiler (spatial/profile.hpp) embeds these sinks and renders the rest:
// the "load" and "congestion" sections of the versioned JSON run report
// (schema v3, docs/OBSERVABILITY.md) and the "link congestion" counter
// track on its Chrome phase trace, sampled at every phase transition.
// Wire-up for benches/examples is util::ProfileSession's --congestion /
// --congestion-heatmap / --load-heatmap flags.
#pragma once

#include "spatial/cell_pages.hpp"
#include "spatial/geometry.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace scm {

namespace parallel {
class ShardedCongestionMap;
}  // namespace parallel

/// One directed unit link of the grid: the wire from `from` to the
/// adjacent processor `to` (Manhattan distance exactly 1). Dimension-
/// ordered routing decomposes a message into a row-run of vertical links
/// followed by a column-run of horizontal links.
struct Link {
  Coord from{};
  Coord to{};

  friend bool operator==(const Link&, const Link&) = default;

  /// Deterministic report order: by source row, source col, then target.
  friend bool operator<(const Link& a, const Link& b) {
    if (a.from.row != b.from.row) return a.from.row < b.from.row;
    if (a.from.col != b.from.col) return a.from.col < b.from.col;
    if (a.to.row != b.to.row) return a.to.row < b.to.row;
    return a.to.col < b.to.col;
  }

  /// "[r,c]->[r,c]" for diagnostics.
  [[nodiscard]] std::string str() const;
};

/// Accumulates per-link occupancy by routing every charged message along
/// the dimension-ordered Manhattan path (rows first, then columns), with
/// per-phase attribution and an opt-in congested-clock diagnostic.
/// Counters live in strip pages of 64 links, 512 B per touched page (see
/// the file comment). Tracking costs O(distance) per message, so it is
/// opt-in observability, never attached by default.
class CongestionMap final : public TraceSink {
 public:
  CongestionMap() = default;
  /// Not copyable: the sink caches a pointer into its own bucket map.
  CongestionMap(const CongestionMap&) = delete;
  CongestionMap& operator=(const CongestionMap&) = delete;

  /// Occupancy summary of one phase bucket (innermost-phase attribution;
  /// kNoPhase collects traffic charged outside any PhaseScope).
  struct PhaseCongestion {
    PhaseId phase{kNoPhase};
    index_t occupancy{0};  ///< summed link traversals in this bucket
    index_t links{0};      ///< distinct links touched
    index_t peak{0};       ///< largest per-link occupancy in this bucket
  };

  // TraceSink hooks.
  void on_message(Coord from, Coord to, index_t distance) override;
  /// Batched counterpart: one virtual dispatch per batch, skipping the
  /// per-message on_message+on_send double dispatch of the default
  /// replay. Per-link occupancy is identical to the replayed stream
  /// (asserted algorithm-by-algorithm through the bulk_ab A/B harness).
  void on_send_bulk(std::span<const MessageEvent> batch) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  /// Machine construction/reset drops the recorded data (an exported
  /// artifact describes the last run); open phase scopes survive, exactly
  /// like Machine::reset and Profiler::clear.
  void on_reset() override;

  /// Charged messages observed.
  [[nodiscard]] index_t messages() const { return messages_; }

  /// Summed occupancy over all links == summed Manhattan distance of all
  /// observed messages. Equals Metrics::energy when the sink observed the
  /// machine's whole life — the link-decomposition identity
  /// tests/test_congestion.cpp asserts on every Table-1 algorithm.
  [[nodiscard]] index_t total_occupancy() const { return total_; }

  /// Number of distinct links that carried at least one unit.
  [[nodiscard]] index_t links() const { return load_.links(); }

  /// Occupancy of one directed link (0 when never traversed).
  [[nodiscard]] index_t occupancy(Link link) const;

  /// Largest per-link occupancy — the global congestion bottleneck.
  [[nodiscard]] index_t max_link_load() const { return max_link_load_; }

  /// The `k` most-loaded links, descending (ties broken by coordinate).
  [[nodiscard]] std::vector<std::pair<Link, index_t>> hotspot_links(
      std::size_t k) const;

  /// Nearest-rank p-th percentile (p in [0, 100]) of the occupancy over
  /// touched links; 0 when no traffic was recorded.
  [[nodiscard]] index_t percentile(double p) const;

  /// Every touched link with its occupancy, sorted by Link order — the
  /// canonical byte-comparable form the A/B harness and the metamorphic
  /// fuzzer oracles diff.
  [[nodiscard]] std::vector<std::pair<Link, index_t>> sorted_links() const;

  /// The occupancy values over touched links, sorted ascending. Grid
  /// translation moves every link but changes no occupancy, so this
  /// multiset is bit-identical under translation (fuzzer oracle).
  [[nodiscard]] std::vector<index_t> occupancy_multiset() const;

  /// Per-phase congestion summaries in first-touch order. A kNoPhase
  /// entry appears iff traffic was charged outside every scope.
  [[nodiscard]] std::vector<PhaseCongestion> phase_congestion() const;

  /// Peak link occupancy attributed to phase `id` (innermost-attribution
  /// bucket); 0 when the phase saw no traffic.
  [[nodiscard]] index_t phase_peak(PhaseId id) const;

  /// The opt-in congestion cost metric: sum over phase buckets of the
  /// bucket's peak link occupancy. Phases execute in sequence and a
  /// link's traffic serializes, so this is a congestion-aware clock
  /// proxy. Diagnostic-only: strictly separate from the paper's three
  /// metrics, never checked by the conformance checker, and always
  /// >= max_link_load() (the peak link's total splits across buckets,
  /// each counted at least at its bucket share).
  [[nodiscard]] index_t congested_clock() const { return congested_clock_; }

  /// Human-readable summary: totals, percentiles, hotspot links, and the
  /// per-phase peak table behind congested_clock().
  [[nodiscard]] std::string ascii_report(std::size_t hotspots = 5) const;

  /// ASCII heatmap of per-cell link pressure over the touched bounding
  /// box: each cell shows the maximum occupancy over the directed links
  /// *leaving* it, downsampled to at most `max_side` characters per side
  /// (values below 1 count as 1) with the level ramp " .:-=+*#%@".
  [[nodiscard]] std::string heatmap(index_t max_side = 32) const;

  /// Drops all recorded data; the mirrored phase stack survives (open
  /// scopes keep attributing, as across Machine::reset).
  void clear();

 private:
  friend class LoadMap;
  friend class parallel::ShardedCongestionMap;

  /// Direction of a directed unit link.
  enum Dir : std::uint8_t { kUp, kDown, kLeft, kRight };

  /// A straight run of `count` directed unit links of one direction.
  /// Links are keyed by their from-cell; the run's from-cells start at
  /// (row, col) and advance by one along the run's axis (rows for up and
  /// down, columns for left and right) whatever the direction of travel.
  struct Run {
    index_t row{0};
    index_t col{0};
    index_t count{0};
    Dir dir{kUp};

    [[nodiscard]] bool vertical() const { return dir == kUp || dir == kDown; }
  };

  /// Dimension-ordered routing of one message from `from` to `to`: the
  /// vertical run at from.col, then the horizontal run at to.row (either
  /// may be empty). The library's only route decomposition.
  [[nodiscard]] static std::array<Run, 2> route(Coord from, Coord to);

  /// Per-link occupancy counters in strip pages (see the file comment).
  /// The last page used in each direction is cached, so a run that stays
  /// on the page the previous run of its direction used needs no lookup.
  class LinkLoad {
   public:
    LinkLoad() = default;
    /// Not copyable: the page cache points into this object's pages.
    LinkLoad(const LinkLoad&) = delete;
    LinkLoad& operator=(const LinkLoad&) = delete;

    /// Adds one unit to every link of `run` and returns the largest count
    /// the run leaves on any of them (0 for an empty run).
    index_t add(const Run& run);

    /// Count of the `dir` link leaving `from`; 0 when never traversed.
    [[nodiscard]] index_t at(Coord from, Dir dir) const;

    /// Distinct links with a nonzero count.
    [[nodiscard]] index_t links() const { return links_; }

    /// Calls fn(link, count) for every link with a nonzero count, in no
    /// set order.
    template <typename Fn>
    void for_each(Fn&& fn) const;

    void clear();

   private:
    /// Links per page, chosen by measurement: shorter pages cost more
    /// lookups per run, longer ones more memory per touched page.
    static constexpr index_t kPageLinks = 64;
    using Page = std::array<index_t, kPageLinks>;

    /// The position of the first link of the page holding position `pos`
    /// along a line. Masking rounds down, negative positions included.
    static index_t page_first(index_t pos) { return pos & ~(kPageLinks - 1); }

    /// A page: its direction, its line (the column of a vertical page,
    /// the row of a horizontal one) and the position along the line of
    /// its first link, a multiple of kPageLinks.
    struct PageKey {
      index_t line{0};
      index_t first{0};
      Dir dir{kUp};

      friend bool operator==(const PageKey&, const PageKey&) = default;
    };
    struct PageKeyHash {
      std::size_t operator()(const PageKey& k) const {
        return std::hash<std::uint64_t>{}(
            coord_key(k.line, k.first / kPageLinks) * 4 + k.dir);
      }
    };
    struct Recent {
      PageKey key;
      Page* page{nullptr};
    };

    /// The page under `key`, created zeroed on first use.
    Page& page(const PageKey& key);

    std::unordered_map<PageKey, Page, PageKeyHash> pages_;
    std::array<Recent, 4> recent_{};  ///< last page used, per direction
    index_t links_{0};
  };

  /// The bucket traffic is currently attributed to (innermost phase).
  [[nodiscard]] PhaseId bucket() const {
    return stack_.empty() ? kNoPhase : stack_.back();
  }

  /// Per-bucket link counters and peak, keyed by innermost PhaseId.
  struct Bucket {
    LinkLoad load;
    index_t occupancy{0};
    index_t peak{0};
  };

  /// The resolved bucket of the innermost phase, fetched lazily and
  /// cached until the next phase transition (unordered_map nodes are
  /// pointer-stable), so the hot path pays one bucket hash lookup per
  /// transition instead of one per run.
  Bucket& current_bucket();

  /// Adds one unit of occupancy to every link of `run`, attributed to the
  /// current bucket. Counts no message: a run may be one piece of a
  /// message (the sharded map splits runs at tile bands).
  void add(const Run& run);

  /// The unit link leaving `from` in direction `dir`.
  static Link link_of(Coord from, Dir dir);

  LinkLoad load_;
  index_t total_{0};
  index_t messages_{0};
  index_t max_link_load_{0};
  index_t congested_clock_{0};

  std::unordered_map<PhaseId, Bucket> phases_;
  std::vector<PhaseId> phase_order_;  ///< first-touch order of buckets
  Bucket* cached_bucket_{nullptr};    ///< see current_bucket()

  /// Mirror of the machine's phase stack (survives clear()/on_reset).
  std::vector<PhaseId> stack_;
};

/// Accumulates per-processor traffic under the dimension-ordered routing
/// of CongestionMap, counted endpoints included: one unit at a message's
/// source and one at every processor a unit hop enters. A message of
/// distance d thus loads d + 1 processors, and
///
///   load(c) = messages sent from c + link traversals into c.
///
/// The sink keeps an embedded CongestionMap and a per-cell count of sent
/// messages, and derives every per-cell query from the two; it updates no
/// per-cell counter per hop. A zero-length message delivered directly
/// counts one unit at its cell; zero-length bulk entries are skipped.
/// on_reset is ignored, so the map accumulates across Machine::reset.
class LoadMap final : public TraceSink {
 public:
  /// Every touched processor with its load, derived from the link map in
  /// one pass. Each per-cell query of LoadMap derives one; a caller
  /// asking several about one run (the Profiler's report section) derives
  /// it once with cells() and queries it.
  class Cells {
   public:
    /// Largest per-processor load (the congestion bottleneck).
    [[nodiscard]] index_t max_load() const;

    /// The `k` most-loaded processors, descending (ties broken by
    /// coordinate). O(n log k) via partial sort — cheap for the small k a
    /// report shows even when millions of processors saw traffic.
    [[nodiscard]] std::vector<std::pair<Coord, index_t>> hotspots(
        std::size_t k) const;

    /// Nearest-rank p-th percentile (p in [0, 100]) of the load over the
    /// touched processors; 0 when no traffic was recorded. p = 100 is
    /// max_load(); report summaries use p50/p95/p99.
    [[nodiscard]] index_t percentile(double p) const;

    /// Coefficient of variation of the load over the touched processors —
    /// 0 means perfectly balanced traffic.
    [[nodiscard]] double imbalance() const;

    /// Renders an ASCII heatmap of the touched bounding box, downsampled
    /// to at most `max_side` characters per side (values below 1 count as
    /// 1). Levels " .:-=+*#%@" scale linearly with the bucket's maximum
    /// load.
    [[nodiscard]] std::string heatmap(index_t max_side = 32) const;

   private:
    friend class LoadMap;
    explicit Cells(std::vector<std::pair<Coord, index_t>> loads)
        : loads_(std::move(loads)) {}

    std::vector<std::pair<Coord, index_t>> loads_;  ///< in no set order
  };

  void on_message(Coord from, Coord to, index_t distance) override;

  /// Batched routing: one virtual dispatch per batch instead of two per
  /// message; per-processor counts are identical to the replayed stream.
  void on_send_bulk(std::span<const MessageEvent> batch) override;

  /// Phase transitions reach the link map, so its per-phase buckets are
  /// those of a CongestionMap attached beside this sink.
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;

  /// Traffic units that passed through processor `c`.
  [[nodiscard]] index_t load_at(Coord c) const;

  /// Total traffic (= sum of per-processor loads).
  [[nodiscard]] index_t total_load() const {
    return links_.messages() + links_.total_occupancy();
  }

  /// Number of messages observed.
  [[nodiscard]] index_t messages() const { return links_.messages(); }

  /// The per-cell view every query below is answered from.
  [[nodiscard]] Cells cells() const;

  [[nodiscard]] index_t max_load() const { return cells().max_load(); }
  [[nodiscard]] std::vector<std::pair<Coord, index_t>> hotspots(
      std::size_t k) const {
    return cells().hotspots(k);
  }
  [[nodiscard]] index_t percentile(double p) const {
    return cells().percentile(p);
  }
  [[nodiscard]] double imbalance() const { return cells().imbalance(); }
  [[nodiscard]] std::string heatmap(index_t max_side = 32) const {
    return cells().heatmap(max_side);
  }

  /// The link map the per-cell view is derived from.
  [[nodiscard]] const CongestionMap& links() const { return links_; }

  void clear();

 private:
  CongestionMap links_;
  // Messages sent per cell, in strip pages (spatial/cell_pages.hpp): a
  // message costs a page-cache probe, and clear() empties the table in
  // O(1). The table retains 1 KiB per 64-cell strip that sent, for the
  // sink's life.
  CellPages<index_t> sent_;
};

}  // namespace scm
