#include "spatial/machine.hpp"

#include "spatial/parallel.hpp"
#include "spatial/trace.hpp"

#include <algorithm>
#include <cassert>

namespace scm {

TraceSink* Machine::global_trace_ = nullptr;

namespace {
/// Joins `c` into `max`; true when a component rose.
inline bool raise(Clock& max, Clock c) {
  const Clock joined = Clock::join(max, c);
  const bool rose = !(joined == max);
  max = joined;
  return rose;
}

/// Component-wise min, the dual of Clock::join.
inline Clock meet(Clock a, Clock b) {
  return Clock{std::min(a.depth, b.depth), std::min(a.distance, b.distance)};
}
}  // namespace

void Machine::set_global_trace(TraceSink* sink) { global_trace_ = sink; }

TraceSink* Machine::global_trace() { return global_trace_; }

Machine::Machine() {
  emit([](TraceSink& s) { s.on_reset(); });
}

Clock Machine::send(Coord from, Coord to, Clock payload) {
  const index_t dist = manhattan(from, to);
  if (dist == 0) return payload;
  const Clock arrival = payload.after_hop(dist);
  apply_send_aggregate(dist, 1, arrival);
  emit([&](TraceSink& s) {
    s.on_message(from, to, dist);
    s.on_send(MessageEvent{from, to, dist, payload, arrival});
  });
  return arrival;
}

void Machine::send_bulk(std::span<MessageEvent> batch) {
  if (batch.empty()) return;
  // Sharded fast path: batches at least min_parallel_batch long are
  // charged tile-parallel (spatial/parallel.hpp). The engine fills
  // distance/arrival in place, merges per-worker aggregates in fixed
  // worker order, and we flush through the exact code path the serial
  // loop uses and emit the same single on_send_bulk — bit-identical by
  // construction. The engine *declines* (returns false) when its inline
  // guard finds two entries addressing one destination — an unproven
  // batch — and the serial loop below charges it instead, leaving the
  // IndependenceChecker to report the conflict.
  if (parallel::Engine* const eng = parallel::engine();
      eng != nullptr &&
      static_cast<index_t>(batch.size()) >= eng->config().min_parallel_batch) {
    parallel::BulkAggregate agg;
    if (eng->charge_send_bulk(batch, agg)) {
      if (agg.messages == 0) return;
      apply_send_aggregate(agg.energy, agg.messages, agg.max_clock);
      emit([&](TraceSink& s) { s.on_send_bulk(batch); });
      return;
    }
  }
  // Tight accumulation loop: no phase-set walk, no virtual dispatch.
  index_t energy = 0;
  index_t messages = 0;
  Clock max{};
  for (MessageEvent& e : batch) {
    const index_t dist = manhattan(e.from, e.to);
    e.distance = dist;
    if (dist == 0) {
      // Zero-length sends are free and unreported, as in the scalar path.
      e.arrival = e.payload;
      continue;
    }
    e.arrival = e.payload.after_hop(dist);
    energy += dist;
    ++messages;
    max = Clock::join(max, e.arrival);
  }
  if (messages == 0) return;
  apply_send_aggregate(energy, messages, max);
  emit([&](TraceSink& s) { s.on_send_bulk(batch); });
}

void Machine::apply_send_aggregate(index_t energy, index_t messages,
                                   Clock max) {
  // One charge into the totals and the pending delta. A batch's charge
  // equals its messages' one-by-one charges because sums commute and
  // Clock::join is an associative/commutative max; the whole batch is
  // attributed to the phase set active at this call (phases cannot change
  // mid-batch by contract).
  totals_.energy += energy;
  totals_.messages += messages;
  totals_.max_clock = Clock::join(totals_.max_clock, max);
  pending_.energy += energy;
  pending_.messages += messages;
  touch_active(max);
}

void Machine::op(index_t n) {
  assert(n >= 0);
  totals_.local_ops += n;
  pending_.local_ops += n;
  touch_active(Clock{});
  emit([&](TraceSink& s) { s.on_op(n); });
}

void Machine::op_bulk(index_t n) {
  // local_ops simply sums, so one op(n) is already metrics-identical to
  // any per-iteration decomposition; the bulk name documents intent at
  // batched call sites. Sinks see a single on_op(n).
  op(n);
}

void Machine::observe(Clock c) {
  if (join_clock(c)) emit([&](TraceSink& s) { s.on_observe(c); });
}

bool Machine::join_clock(Clock c) {
  bool changed = raise(totals_.max_clock, c);
  // An active phase is touched for the first time, or the lowest active
  // max clock lies below c in some component, so some phase's max rises.
  changed |= untouched_active_;
  changed |= c.depth > floor_.depth || c.distance > floor_.distance;
  touch_active(c);
  return changed;
}

void Machine::touch_active(Clock c) {
  pending_.max_clock = Clock::join(pending_.max_clock, c);
  has_pending_ = true;
  untouched_active_ = false;
  // The min of the maxes rises to c exactly as each max does.
  floor_ = Clock::join(floor_, c);
}

void Machine::flush() const {
  if (!has_pending_) return;
  has_pending_ = false;
  for (const PhaseId id : active_) {
    Metrics& pm = slot(id);
    pm.energy += pending_.energy;
    pm.messages += pending_.messages;
    pm.local_ops += pending_.local_ops;
    pm.max_clock = Clock::join(pm.max_clock, pending_.max_clock);
  }
  pending_ = Metrics{};
}

void Machine::refloor() {
  floor_ = kNoFloor;
  untouched_active_ = false;
  for (const PhaseId id : active_) {
    floor_ = meet(floor_, phase_totals_[id].max_clock);
    untouched_active_ |= touched_flag_[id] == 0;
  }
}

void Machine::birth(Coord at, Clock c) {
  join_clock(c);
  emit([&](TraceSink& s) { s.on_birth(at, c); });
}

void Machine::death(Coord at) {
  emit([&](TraceSink& s) { s.on_death(at); });
}

void Machine::birth_bulk(std::span<const BirthEvent> batch) {
  if (batch.empty()) return;
  Clock max{};
  // Births have no per-entry charge, only the clock-join reduction, so
  // the parallel engine's contribution is a block-partitioned max.
  if (parallel::Engine* const eng = parallel::engine();
      eng != nullptr &&
      static_cast<index_t>(batch.size()) >= eng->config().min_parallel_batch) {
    max = eng->join_birth_clocks(batch);
  } else {
    for (const BirthEvent& b : batch) max = Clock::join(max, b.clock);
  }
  join_clock(max);
  emit([&](TraceSink& s) { s.on_birth_bulk(batch); });
}

void Machine::death_bulk(std::span<const Coord> batch) {
  if (batch.empty()) return;
  emit([&](TraceSink& s) { s.on_death_bulk(batch); });
}

void Machine::reset() {
  totals_ = Metrics{};
  pending_ = Metrics{};
  has_pending_ = false;
  for (const PhaseId id : touched_) {
    phase_totals_[id] = Metrics{};
    touched_flag_[id] = 0;
  }
  touched_.clear();
  refloor();
  // Phase stack (and with it the active set) intentionally survives a
  // reset so a PhaseScope spanning the reset keeps attributing costs;
  // resetting mid-scope is unusual but legal.
  emit([](TraceSink& s) { s.on_reset(); });
}

std::map<std::string, Metrics> Machine::phases() const {
  flush();
  const PhaseRegistry& registry = PhaseRegistry::instance();
  std::map<std::string, Metrics> out;
  for (const PhaseId id : touched_) {
    out.emplace(registry.name(id), phase_totals_[id]);
  }
  return out;
}

const Metrics& Machine::phase(std::string_view name) const {
  return phase(PhaseRegistry::instance().find(name));
}

const Metrics& Machine::phase(PhaseId id) const {
  static const Metrics kEmpty{};
  flush();
  if (id == kNoPhase || id >= touched_flag_.size() ||
      touched_flag_[id] == 0) {
    return kEmpty;
  }
  return phase_totals_[id];
}

void Machine::begin_phase(std::string_view name) {
  begin_phase(PhaseRegistry::instance().intern(name));
}

void Machine::begin_phase(PhaseId id) {
  assert(id < PhaseRegistry::instance().size());
  if (id >= stack_count_.size()) {
    const std::size_t size = PhaseRegistry::instance().size();
    stack_count_.resize(size, 0);
    touched_flag_.resize(size, 0);
    phase_totals_.resize(size);
  }
  flush();
  phase_stack_.push_back(id);
  // First occurrence on the stack: the phase joins the attribution set.
  // Deeper re-entries of the same name only bump the count, which is the
  // whole recursive-name dedup — moved from per-event to per-transition.
  if (stack_count_[id]++ == 0) {
    active_.push_back(id);
    floor_ = meet(floor_, phase_totals_[id].max_clock);
    untouched_active_ |= touched_flag_[id] == 0;
  }
  emit([&](TraceSink& s) { s.on_phase_enter(id); });
}

void Machine::end_phase() {
  if (phase_stack_.empty()) return;
  flush();
  const PhaseId id = phase_stack_.back();
  phase_stack_.pop_back();
  if (--stack_count_[id] == 0) {
    // The popped occurrence was the id's only one, i.e. its first — and
    // first occurrences enter `active_` in stack order, so it is the most
    // recently activated id.
    assert(!active_.empty() && active_.back() == id);
    active_.pop_back();
    refloor();
  }
  emit([&](TraceSink& s) { s.on_phase_exit(id); });
}

Machine::PhaseScope::PhaseScope(Machine& m, std::string_view name)
    : machine_(m) {
  machine_.begin_phase(name);
}

Machine::PhaseScope::PhaseScope(Machine& m, PhaseId id) : machine_(m) {
  machine_.begin_phase(id);
}

Machine::PhaseScope::~PhaseScope() { machine_.end_phase(); }

}  // namespace scm
