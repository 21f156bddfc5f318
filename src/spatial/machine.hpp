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
// attribution engine works purely on integers. Charging an event is O(1)
// at any phase depth: it adds into the totals and into one pending delta
// for the current active phase set. The walk that adds the delta into
// every active phase runs per transition (begin_phase, end_phase) and per
// per-phase query, as does the name-level deduplication recursive
// algorithms need (a phase stacked at every recursion level is attributed
// once).
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/metrics.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <deque>
#include <limits>
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
  /// observed through the default TraceSink replay (phases cannot change
  /// mid-batch — the whole batch is attributed to the phase set active at
  /// this call). The speedup comes from amortization: one call for the
  /// batch, energy/messages/clock maxima accumulated in a tight local
  /// loop, and one on_send_bulk event for attached sinks instead of up to
  /// two virtual dispatches per message. No event is emitted when every
  /// entry is zero-length. The A/B harness (spatial/bulk_ab.hpp) holds the
  /// fast path to this contract by replaying a bulk run's events entry by
  /// entry through send() on a fresh Machine.
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

  /// Per-phase cost records, keyed by phase name: a snapshot built from
  /// the id-indexed engine on every call (names sorted, as the historical
  /// map API guaranteed). Nested phases accumulate into every active
  /// scope, so "sort" includes its "sort/merge" children; a phase appears
  /// once it has at least one attributed event. Each call copies every
  /// record into a fresh string-keyed map, so it is for report-time
  /// snapshots; hot query paths use touched_phases() with phase(PhaseId).
  /// Like every per-phase query, it first adds the pending delta into the
  /// active phases, which changes no number any query reports.
  [[nodiscard]] std::map<std::string, Metrics> phases() const;

  /// Costs recorded under a phase name; a zero Metrics if never entered.
  /// The reference stays valid across further charging, transitions and
  /// resets (per-phase records never move), so hot query paths pay no
  /// Metrics copy. Its fields include every charge up to the latest phase
  /// transition, per-phase query or reset; charges since then sit in the
  /// pending delta until the next one. A reference taken before the
  /// phase's first attributed event is a shared zero that does not follow
  /// later charges.
  [[nodiscard]] const Metrics& phase(std::string_view name) const;

  /// Id-indexed form of phase(): costs recorded under the interned phase
  /// `id`, zero Metrics if never touched. Same reference contract; the
  /// zero-string-work accessor for hot query loops.
  [[nodiscard]] const Metrics& phase(PhaseId id) const;

  /// The ids of every phase with at least one attributed event since the
  /// last reset, in first-touch order: the phases phases() would list.
  /// With phase(PhaseId) this iterates the per-phase records without
  /// building a map or touching a name. The span is invalidated by the
  /// next phase transition, per-phase query or reset.
  [[nodiscard]] std::span<const PhaseId> touched_phases() const {
    flush();
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
  /// observe() without the event: joins `c` into the totals' and every
  /// active phase's max clock, and says whether any record changed. birth
  /// and birth_bulk raise clocks through it, since replaying their own
  /// events raises the same clocks.
  bool join_clock(Clock c);

  /// One merged charge of sends into the totals and the pending delta:
  /// energy, message count and the join of the arrival clocks. The one
  /// charging path, shared by send (one message), the serial bulk loop and
  /// the parallel engine's merged aggregate, so all three are
  /// bit-identical by construction.
  void apply_send_aggregate(index_t energy, index_t messages, Clock max);

  /// Bookkeeping every charged event shares: joins the event's clock `c`
  /// into the pending delta and into the floor, and marks every active
  /// phase as touched.
  void touch_active(Clock c);

  /// Adds the pending delta into every active phase, in `active_` order
  /// (so first-touch order is the per-event order), and clears it. const
  /// because per-phase queries run it; the delta and the records it
  /// writes are mutable, so const queries of one Machine must not run
  /// concurrently either.
  void flush() const;

  /// Recomputes floor_ and untouched_active_ over the active phases.
  /// Precondition: no pending delta.
  void refloor();

  /// The per-phase record for `id`, marking it as touched (= it will
  /// appear in phases()). Precondition: `id` is on the phase stack, so the
  /// per-id tables were sized by begin_phase.
  Metrics& slot(PhaseId id) const {
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

  /// floor_ of an empty active set: no clock rises above it.
  static constexpr Clock kNoFloor{std::numeric_limits<index_t>::max(),
                                  std::numeric_limits<index_t>::max()};

  Metrics totals_{};

  // The attribution engine. `active_` is the precomputed set of distinct
  // phase ids currently on the stack, ordered by the stack position of
  // each id's first (outermost) occurrence; `stack_count_[id]` counts the
  // occurrences of `id` on the stack. begin/end_phase maintain both in
  // O(1) and flush the pending delta, the charges since the last flush,
  // into each distinct active phase exactly once with no dedup scan. All
  // id-indexed tables are sized to the PhaseRegistry on demand at phase
  // entry; per-phase Metrics live in a deque so references handed out by
  // phase() stay valid as the id space grows.
  std::vector<PhaseId> phase_stack_;
  std::vector<PhaseId> active_;
  std::vector<index_t> stack_count_;
  mutable std::deque<Metrics> phase_totals_;
  mutable std::vector<char> touched_flag_;
  mutable std::vector<PhaseId> touched_;
  mutable Metrics pending_{};
  // Set by every charged event, even one that adds nothing (op(0), an
  // observe of a lower clock): the flush still touches the active phases.
  mutable bool has_pending_{false};

  // What observe() needs to emit exactly when a record changes, in O(1):
  // floor_ is the component-wise min, over the active phases, of their
  // max clocks with the pending delta included, so some active phase's
  // max rises under c iff c exceeds floor_ in a component; and whether
  // some active phase has no attributed event yet.
  Clock floor_{kNoFloor};
  bool untouched_active_{false};

  TraceSink* trace_{nullptr};

  static TraceSink* global_trace_;
};

}  // namespace scm
