// Phase-tree profiler and critical-path witness tracer for the Spatial
// Computer Model simulator.
//
// The Machine's Metrics answer *how much* a computation cost (energy,
// depth, distance); this module answers *where* and *why*:
//
//   * The Profiler TraceSink maintains a **phase call tree** — one node
//     per distinct stack of interned PhaseIds — with self energy,
//     messages, local ops, and a log2-bucketed message-distance histogram
//     per node. Per-phase totals from Machine::phases() are flat (a
//     "merge2d" entry mixes every call site); the tree keeps
//     "mergesort2d/merge2d" apart from a top-level "merge2d" and makes
//     recursive self-nesting ("mergesort2d/mergesort2d/...") visible.
//     Hot-path cost: O(1) hash work per phase transition, O(1) integer
//     adds per message/op (self counts only; subtree totals are rolled up
//     once at export), which is within the O(depth-of-stack) budget the
//     Machine's own attribution engine already pays.
//
//   * The opt-in **critical-path witness recorder** keeps, per observed
//     value clock, the first event (message arrival or value birth) that
//     achieved each clock-component value. Because every payload clock of
//     a conforming execution is a component-wise max (Clock::join) of
//     previously observed clocks, the exact dependent chain realizing
//     Metrics::depth() — and, separately, the chain realizing
//     Metrics::distance() — can be reconstructed message-by-message and
//     attributed phase-by-phase. The paper argues its bounds by
//     decomposing the critical path per primitive; the witness surfaces
//     that decomposition from real executions ("which 47 messages make
//     the depth 47, and in which phases do they live?").
//
//   * **Exporters**: an ASCII tree report for terminals, a Chrome
//     trace_event JSON of phase scopes (open in Perfetto or
//     chrome://tracing; timestamps are virtual ticks, one per charged
//     event, with a link-congestion counter track when enabled), and a
//     versioned machine-readable JSON run report combining totals, the
//     phase tree, the critical-path witness, an optional LoadMap traffic
//     summary, and an optional CongestionMap link-level congestion
//     section. docs/OBSERVABILITY.md documents the schema.
//
// Attach per-machine (Machine::set_trace) or process-wide
// (Machine::set_global_trace); util::ProfileSession wires the standard
// --profile / --trace-json / --profile-ascii flags into bench and example
// binaries. A machine reset (or construction) clears the profile: an
// exported artifact describes the events since the last reset, i.e. the
// last simulated run.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/congestion.hpp"
#include "spatial/geometry.hpp"
#include "spatial/independence.hpp"
#include "spatial/metrics.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace scm {

/// Log2-bucketed histogram of charged message distances: bucket b counts
/// messages whose Manhattan distance d satisfies floor(log2 d) == b, so
/// bucket 0 is d = 1, bucket 1 is d in [2,3], bucket 2 is d in [4,7], ...
/// Distance distributions are the paper's energy story in miniature: a
/// phase whose histogram mass sits in high buckets moves values far
/// (gather/scatter); low buckets are neighbor traffic.
struct DistanceHistogram {
  std::vector<index_t> buckets;
  index_t count{0};
  index_t max_distance{0};

  void add(index_t distance);

  /// Lower bound (2^b) of the bucket containing the p-th percentile
  /// (nearest-rank over messages, p in [0, 100]); 0 when empty.
  [[nodiscard]] index_t percentile_lower_bound(double p) const;
};

/// TraceSink building a phase call tree (and, opt-in, a critical-path
/// witness) from a Machine's event stream.
class Profiler final : public TraceSink {
 public:
  /// Version of the machine-readable run-report schema emitted by
  /// json_report(). Bump on any breaking change to field names/meaning.
  /// v2: added the "independence" section (batch-independence conflict
  /// counts and per-phase batch footprints).
  /// v3: added the "congestion" section (per-link occupancy summary,
  /// per-phase peak link loads, and the opt-in congested-clock metric).
  static constexpr int kSchemaVersion = 3;

  struct Options {
    /// Record per-value witness events so critical_path() can reconstruct
    /// the exact chains realizing depth and distance. Costs two hash
    /// lookups per message/birth, and ~80 bytes per event that first
    /// achieves a depth or distance value (memory is O(distinct depth +
    /// distance values), not O(messages)); off by default so the plain
    /// tree profiler stays cheap.
    bool witness{false};

    /// Maintain an internal LoadMap (dimension-ordered routing) so the
    /// run report includes a per-processor traffic summary. Costs
    /// O(distance) per message; off by default.
    bool load_map{false};

    /// Maintain an embedded CongestionMap (per-link occupancy under
    /// dimension-ordered routing, with per-phase peak link loads and the
    /// diagnostic congested-clock metric) and export it as the run
    /// report's "congestion" section plus a Chrome counter track. Costs
    /// O(distance) per message; off by default. With load_map also on,
    /// the LoadMap's own link map is this map: each message is routed
    /// once.
    bool congestion{false};

    /// Run an embedded IndependenceChecker (always non-strict: findings
    /// land in the report, never abort) and export its conflict counts
    /// and per-phase batch footprints as the run report's "independence"
    /// section, so CI can assert zero conflicts from artifacts. Costs one
    /// O(batch) degree-table pass per bulk event; on by default because
    /// every standard --profile artifact should carry the verdict.
    bool independence{true};
  };

  Profiler() : Profiler(Options{}) {}
  explicit Profiler(Options options);

  /// One node of the phase call tree. Node 0 is the root (phase ==
  /// kNoPhase): costs charged outside any PhaseScope. `self_*` counters
  /// exclude descendants; exporters roll up subtree totals.
  struct PhaseNode {
    PhaseId phase{kNoPhase};
    std::uint32_t parent{0};
    std::uint32_t depth{0};  ///< root = 0
    index_t self_energy{0};
    index_t self_messages{0};
    index_t self_ops{0};
    DistanceHistogram hist;
    std::vector<std::uint32_t> children;
  };

  /// One message of a reconstructed critical-path chain.
  struct WitnessHop {
    Coord from{};
    Coord to{};
    index_t distance{0};
    Clock payload{};  ///< clock carried on departure
    Clock arrival{};  ///< clock on arrival (payload.after_hop(distance))
    /// Active phase names when the message was charged, outermost first.
    std::vector<std::string> phases;
  };

  /// A dependent chain of messages realizing one clock component.
  struct WitnessChain {
    /// True when the chain bottomed out at a value with component 0 or at
    /// a recorded birth — i.e. the witness observed the whole history.
    /// False only when the profiler was attached mid-run.
    bool complete{true};
    /// Clock at the chain's origin: zero unless the chain starts at an
    /// input born with non-zero history (Machine::birth with a clock).
    Clock start_clock{};
    /// The chain's messages in dependency order (first sent first).
    std::vector<WitnessHop> hops;

    [[nodiscard]] index_t hop_count() const {
      return static_cast<index_t>(hops.size());
    }
    /// Sum of the hops' Manhattan lengths.
    [[nodiscard]] index_t total_distance() const;
  };

  /// The two reconstructed chains. Depth and distance are component-wise
  /// maxima over different chains in general, so each gets its own
  /// witness: depth_chain has exactly Metrics::depth() hops and
  /// distance_chain's total_distance() equals Metrics::distance()
  /// (whenever complete with a zero start clock).
  struct CriticalPathWitness {
    bool enabled{false};
    WitnessChain depth_chain;
    WitnessChain distance_chain;
  };

  // TraceSink hooks.
  void on_message(Coord from, Coord to, index_t distance) override;
  void on_send(const MessageEvent& e) override;
  /// Batched counterpart of on_message+on_send: one virtual dispatch and
  /// one flush of totals/self counters per batch, with per-message ticks,
  /// histogram adds, and witness records kept so every exported artifact
  /// is identical to the replayed per-message stream.
  void on_send_bulk(std::span<const MessageEvent> batch) override;
  void on_op(index_t n) override;
  void on_birth(Coord at, Clock c) override;
  void on_birth_bulk(std::span<const BirthEvent> batch) override;
  /// Deaths carry no cost; forwarded to the embedded independence checker
  /// (its read-write-hazard rule tracks retired cells).
  void on_death(Coord at) override;
  void on_death_bulk(std::span<const Coord> batch) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  void on_reset() override;

  /// Totals re-derived from the event stream. Equals the traced machine's
  /// Metrics when the profiler observed its whole life.
  [[nodiscard]] const Metrics& totals() const { return totals_; }

  /// The phase call tree; nodes[0] is the root and children always have
  /// larger indices than their parent (reverse index order is bottom-up).
  [[nodiscard]] const std::vector<PhaseNode>& nodes() const {
    return nodes_;
  }

  /// Virtual clock: number of charged events (messages + op batches +
  /// births) observed; the Chrome trace's time axis.
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

  /// Reconstructs the critical-path chains from the witness record.
  /// enabled == false when Options::witness was off.
  [[nodiscard]] CriticalPathWitness critical_path() const;

  /// The internal per-cell load map; nullptr unless Options::load_map.
  [[nodiscard]] const LoadMap* load_map() const;

  /// The embedded link-level congestion map; nullptr unless
  /// Options::congestion.
  [[nodiscard]] const CongestionMap* congestion() const;

  /// The embedded batch-independence checker; nullptr when
  /// Options::independence was off.
  [[nodiscard]] const IndependenceChecker* independence() const;

  /// Human-readable phase tree (self/total energy, messages, ops, and
  /// distance p50/max per node).
  [[nodiscard]] std::string ascii_report() const;

  /// Chrome trace_event JSON of the phase scopes (B/E duration events
  /// over the virtual tick axis). Loads in Perfetto / chrome://tracing.
  [[nodiscard]] std::string chrome_trace_json() const;

  /// Versioned machine-readable run report: totals, phase tree, critical
  /// path (if witnessed), per-cell load summary (if load-mapped), and
  /// link-level congestion section (if congestion-mapped). Schema in
  /// docs/OBSERVABILITY.md; "schema_version" == kSchemaVersion.
  [[nodiscard]] std::string json_report() const;

  /// Drops all recorded data. Open phase scopes survive (like
  /// Machine::reset): the current phase path is re-entered at tick 0.
  void clear();

 private:
  struct ScopeEvent {
    bool enter{true};
    PhaseId phase{kNoPhase};
    std::uint64_t tick{0};
    index_t energy{0};  ///< cumulative energy at the transition
    /// Congestion counters at the transition (0 unless
    /// Options::congestion): the Chrome trace's counter-track samples
    /// share the phase scopes' tick axis.
    index_t max_link_load{0};
    index_t congested_clock{0};
  };

  /// One witnessed clock observation (message arrival or birth).
  struct WitnessEvent {
    Coord from{};
    Coord to{};
    index_t distance{0};  ///< 0 for births
    Clock payload{};      ///< for births: the birth clock itself
    Clock arrival{};
    std::uint32_t node{0};
    bool is_birth{false};
  };

  [[nodiscard]] std::uint32_t child_of(std::uint32_t parent, PhaseId id);
  void record_witness(const WitnessEvent& e);
  /// Phase names along the root path of `node`, outermost first.
  [[nodiscard]] std::vector<std::string> phase_path(
      std::uint32_t node) const;
  /// Self + descendants for every node (indexed like nodes_).
  [[nodiscard]] std::vector<Metrics> rolled_up_totals() const;
  [[nodiscard]] WitnessChain reconstruct_chain(bool by_depth) const;

  Options options_;
  Metrics totals_{};
  std::vector<PhaseNode> nodes_;
  /// (parent << 32 | phase) -> child node index.
  std::unordered_map<std::uint64_t, std::uint32_t> edges_;
  std::uint32_t cur_{0};
  /// Mirror of the machine's phase stack (survives clear()/on_reset).
  std::vector<PhaseId> stack_;
  std::vector<ScopeEvent> scopes_;
  std::uint64_t ticks_{0};

  // Witness record: per clock-component value, the index into events_ of
  // the first event achieving it. events_ keeps only those first
  // achievers (an event is appended when it is first for its depth, its
  // distance, or both), so the record is O(distinct depth + distance
  // values), not O(messages). The maps stay hash maps rather than arrays
  // indexed by component: Machine::birth accepts arbitrary clocks, so an
  // array would need a sparse fallback, a second code path for a few
  // percent of a profiled run.
  std::vector<WitnessEvent> events_;
  std::unordered_map<index_t, std::uint32_t> first_depth_;
  std::unordered_map<index_t, std::uint32_t> first_distance_;

  /// The one link map of the report's "load" and "congestion" sections:
  /// the LoadMap's when Options::load_map, else a standalone
  /// CongestionMap when Options::congestion.
  std::unique_ptr<LoadMap> load_map_;
  std::unique_ptr<CongestionMap> congestion_;
  /// Whichever of the two exists; receives the message and phase events.
  TraceSink* router_{nullptr};
  std::unique_ptr<IndependenceChecker> independence_;
};

}  // namespace scm
