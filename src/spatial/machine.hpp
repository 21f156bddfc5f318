// The Spatial Computer Model machine: an unbounded 2-D grid of processors
// with O(1) local memory, where sending a message costs its Manhattan
// distance (Section III of the paper).
//
// The Machine is a *cost-exact simulator*: algorithms execute host-side but
// every inter-processor message is charged through Machine::send, which
//   * adds the Manhattan distance to the global energy counter,
//   * advances the value's critical-path clock by (1 message, d distance),
//   * records the running maximum clock (= the computation's depth and
//     distance).
// Local computation joins input clocks (Clock::join) and is charged only to
// the informational local_ops counter, matching the model in which only
// messages cost energy/depth/distance.
//
// Named phases give per-stage cost breakdowns for benchmarks and ablations.
// Phase names are interned into dense PhaseIds (spatial/phase.hpp) and the
// attribution engine works purely on integers: charging a message is
// O(active distinct phases) integer adds with zero string hashing or
// comparison. The name-level deduplication recursive algorithms need (a
// phase stacked at every recursion level is attributed once) happens at
// phase transitions, not per event.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/metrics.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace scm {

/// Cost-accounting simulator of the Spatial Computer Model.
class Machine {
 public:
  /// A fresh machine announces itself to the global trace sink (on_reset),
  /// so cross-machine residency accounting starts from a clean epoch.
  Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Charges one message from `from` to `to` carrying a value whose
  /// critical-path clock is `payload`; returns the clock of the value on
  /// arrival. A zero-length send (from == to) is free: the model only
  /// prices actual wire traversals, and "sending to yourself" is local.
  Clock send(Coord from, Coord to, Clock payload);

  /// Bulk-charging fast path: charges every message of `batch` as one
  /// batch. The caller fills each entry's `from`, `to`, and `payload`;
  /// the machine fills `distance` and `arrival` (the returned clocks).
  /// Zero-length entries are free, exactly as in the scalar path.
  ///
  /// Semantics are *metrics-identical* to calling send() per entry in
  /// batch order: same totals, same per-phase records, same events as
  /// observed through the default TraceSink replay. The speedup comes
  /// from amortization: energy/messages/clock maxima accumulate in a
  /// tight local loop, the active-phase set is resolved once per batch
  /// (phases cannot change mid-batch — the whole batch is attributed to
  /// the phase set active at this call), and attached sinks receive one
  /// on_send_bulk event instead of up to two virtual dispatches per
  /// message. No event is emitted when every entry is zero-length. The
  /// A/B harness (spatial/bulk_ab.hpp) holds the fast path to this
  /// contract by replaying a bulk run's events entry by entry through
  /// send() on a fresh Machine.
  void send_bulk(std::span<MessageEvent> batch);

  /// Records `n` local compute operations (free in the model's metrics;
  /// reported to trace sinks via TraceSink::on_op for per-phase work
  /// attribution).
  void op(index_t n = 1);

  /// Bulk form of op(): records `n` local operations accumulated by a
  /// batched loop as one charged event. Metrics-identical to `n` op()
  /// calls (local_ops simply sums); sinks see one on_op(n) instead of n.
  void op_bulk(index_t n);

  /// Records that a value with clock `c` now exists (used when a clock is
  /// produced by pure local combination so the running maximum stays
  /// correct even if the value is never sent again). Sinks receive
  /// on_observe(c) exactly when the call changes a record: the totals' or
  /// an active phase's max clock rises, or an active phase is touched for
  /// the first time. Any other observe leaves every record as it was, so
  /// replaying the reported calls reproduces every per-phase max clock.
  void observe(Clock c);

  /// Declares that a value with clock `c` is resident at processor `at`
  /// without a message having delivered it (input placement). Free in the
  /// model's metrics; reported to trace sinks so residency accounting (the
  /// conformance checker's O(1)-memory enforcement) sees it.
  void birth(Coord at, Clock c = Clock{});

  /// Declares that the value resident at processor `at` has been consumed
  /// or freed. Free in the model's metrics; reported to trace sinks.
  void death(Coord at);

  /// Bulk value placement (GridArray::announce): raises the max clocks
  /// once by the join of all birth clocks and emits a single
  /// on_birth_bulk event.
  /// Metrics-identical to per-entry birth() in batch order.
  void birth_bulk(std::span<const BirthEvent> batch);

  /// Bulk value retirement (GridArray::retire): one on_death_bulk event.
  void death_bulk(std::span<const Coord> batch);

  /// Costs accumulated since construction (or the last reset).
  [[nodiscard]] const Metrics& metrics() const { return totals_; }

  /// Clears all counters and per-phase records.
  void reset();

  /// Per-phase cost records, keyed by phase name — a snapshot materialized
  /// from the id-indexed engine (names sorted, as the historical map API
  /// guaranteed). Nested phases accumulate into every active scope, so
  /// "sort" includes its "sort/merge" children; a phase appears once it
  /// has at least one attributed event. The materialization is cached and
  /// invalidated whenever any per-phase record mutates (charging under an
  /// active phase, or reset), so report paths that query it repeatedly —
  /// cost_report, the run-report exporter, the A/B harness — pay the
  /// string-keyed map build once per change, not once per call. Registry
  /// growth alone cannot change the output (names are immutable per id and
  /// a phase appears only once touched), so it does not invalidate. The
  /// reference stays valid until the Machine is destroyed; its *contents*
  /// refresh on the next phases() call after a mutation.
  [[nodiscard]] const std::map<std::string, Metrics>& phases() const;

  /// Costs recorded under a phase name; a zero Metrics if never entered.
  /// The reference is stable across further charging and phase
  /// transitions (per-phase records never move), so hot query paths pay
  /// no Metrics copy.
  [[nodiscard]] const Metrics& phase(std::string_view name) const;

  /// Id-indexed form of phase(): costs recorded under the interned phase
  /// `id`, zero Metrics if never touched. Stable reference; the
  /// zero-string-work accessor for hot query loops.
  [[nodiscard]] const Metrics& phase(PhaseId id) const;

  /// The ids of every phase with at least one attributed event since the
  /// last reset, in first-touch order. With phase(PhaseId) this iterates
  /// per-phase records without materializing the phases() map — use it
  /// (or phase(name)) on hot query paths; phases() copies every record
  /// into a freshly built string-keyed map on each call and exists for
  /// report-time snapshots.
  [[nodiscard]] std::span<const PhaseId> touched_phases() const {
    return touched_;
  }

  /// Attaches a message observer (e.g. a LoadMap building per-processor
  /// congestion maps); pass nullptr to detach. Not owned. Zero-length
  /// sends are free in the model and are not reported.
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Process-wide trace sink receiving the events of *every* Machine, in
  /// addition to any per-machine sink. Not owned; pass nullptr to detach.
  /// This is how the test harness attaches the conformance checker to all
  /// machines a test creates without threading a sink through every call.
  static void set_global_trace(TraceSink* sink);
  [[nodiscard]] static TraceSink* global_trace();

  /// Enters a named cost-attribution phase (interning the name). Prefer
  /// the RAII PhaseScope; the explicit form exists for bindings and for
  /// conformance tests that deliberately leave a phase unbalanced.
  void begin_phase(std::string_view name);

  /// Enters a phase by pre-interned id (PhaseRegistry::intern) — the
  /// zero-string-work form for hot recursive call sites.
  void begin_phase(PhaseId id);

  /// Exits the innermost phase. No-op on an empty phase stack (the
  /// imbalance is the conformance checker's to report, not UB).
  void end_phase();

  /// RAII scope that attributes all costs charged during its lifetime to
  /// a phase (in addition to any enclosing phases and the global totals).
  class PhaseScope {
   public:
    PhaseScope(Machine& m, std::string_view name);
    PhaseScope(Machine& m, PhaseId id);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Machine& machine_;
  };

 private:
  void charge(index_t energy, index_t messages);

  /// observe() without the event: joins `c` into the totals' and every
  /// active phase's max clock, and says whether any record changed. send,
  /// birth and birth_bulk raise clocks through it, since replaying their
  /// own events raises the same clocks.
  bool join_clock(Clock c);

  /// One merged flush of a send batch into the totals and every active
  /// phase — the single code path shared by the serial bulk loop and the
  /// parallel engine's merged aggregate, so both are bit-identical by
  /// construction.
  void apply_send_aggregate(index_t energy, index_t messages, Clock max);

  /// The per-phase record for `id`, marking it as touched (= it will
  /// appear in phases()). Precondition: `id` is on the phase stack, so the
  /// per-id tables were sized by begin_phase. Callers mutate the returned
  /// record, so this is the phases()-cache invalidation point.
  Metrics& slot(PhaseId id) {
    ++phases_version_;
    if (touched_flag_[id] == 0) {
      touched_flag_[id] = 1;
      touched_.push_back(id);
    }
    return phase_totals_[id];
  }

  /// Applies `fn` to every attached sink (per-machine, then global).
  template <class Fn>
  void emit(Fn&& fn) {
    if (trace_ != nullptr) fn(*trace_);
    if (global_trace_ != nullptr && global_trace_ != trace_) {
      fn(*global_trace_);
    }
  }

  Metrics totals_{};

  // The attribution engine. `active_` is the precomputed set of distinct
  // phase ids currently on the stack, ordered by the stack position of
  // each id's first (outermost) occurrence; `stack_count_[id]` counts the
  // occurrences of `id` on the stack. begin/end_phase maintain both in
  // O(1), so the per-event loops in charge/op/observe touch each distinct
  // active phase exactly once with no dedup scan. All id-indexed tables
  // are sized to the PhaseRegistry on demand at phase entry; per-phase
  // Metrics live in a deque so references handed out by phase() stay
  // valid as the id space grows.
  std::vector<PhaseId> phase_stack_;
  std::vector<PhaseId> active_;
  std::vector<index_t> stack_count_;
  std::deque<Metrics> phase_totals_;
  std::vector<char> touched_flag_;
  std::vector<PhaseId> touched_;

  // phases() cache: rebuilt when phases_version_ (bumped on any per-phase
  // record mutation — slot() and reset()) outruns the cached version.
  std::uint64_t phases_version_{0};
  mutable std::map<std::string, Metrics> phases_cache_;
  mutable std::uint64_t phases_cache_version_{~std::uint64_t{0}};

  TraceSink* trace_{nullptr};

  static TraceSink* global_trace_;
};

}  // namespace scm
