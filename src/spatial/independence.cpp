#include "spatial/independence.hpp"

#include "spatial/phase.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace scm {

namespace {

// The simulator is single-threaded (the analyzer is the gate *for* the
// future sharded engine), so a plain process-global suffices. The reason
// chain restores on scope exit, giving reports the innermost claim.
int g_unordered_depth = 0;
const char* g_unordered_reason = nullptr;

}  // namespace

std::string IndependenceReport::str() const {
  if (!ok()) return violations_str("independence");
  std::ostringstream os;
  os << "independence: ok (" << batches << " batches, " << bulk_messages
     << " bulk messages, " << exempted_batches << " exempted, max fan-in "
     << max_fan_in << ")\n";
  return os.str();
}

ScopedUnorderedDelivery::ScopedUnorderedDelivery(const char* reason)
    : prev_reason_(g_unordered_reason) {
  ++g_unordered_depth;
  g_unordered_reason = reason;
}

ScopedUnorderedDelivery::~ScopedUnorderedDelivery() {
  --g_unordered_depth;
  g_unordered_reason = prev_reason_;
}

bool ScopedUnorderedDelivery::active() { return g_unordered_depth > 0; }

const char* ScopedUnorderedDelivery::reason() { return g_unordered_reason; }

IndependenceChecker::IndependenceChecker(Config config)
    : log_(config.strict, config.backtrace_capacity) {}

void IndependenceChecker::record(ViolationKind kind, Coord at,
                                 std::string detail) {
  Violation v = log_.make(kind, at, std::move(detail),
                          "batch-independence violation");
  ++report_.per_phase[v.phase].conflicts;
  report_.violations.push_back(std::move(v));
}

void IndependenceChecker::new_epoch() { dead_.clear(); }

void IndependenceChecker::on_message(Coord from, Coord to,
                                     index_t distance) {
  // Scalar sends are inherently ordered; all batch checks key off
  // on_send_bulk. Occupancy is tracked through on_send.
  (void)from;
  (void)to;
  (void)distance;
}

void IndependenceChecker::on_send(const MessageEvent& e) {
  // A scalar arrival revives its destination and joins the backtrace, so
  // batch violations show the surrounding scalar traffic too.
  dead_.erase(e.to);
  log_.push(e);
}

void IndependenceChecker::on_send_bulk(
    std::span<const MessageEvent> batch) {
  // One pass over the charged entries builds the per-cell in/out degrees.
  // The lookup is written out in the loop on purpose: GCC left a helper
  // out of line, and a call per lookup made the checker 1.6x slower.
  degrees_.clear();
  touched_.clear();
  index_t charged = 0;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;  // free in the model, never delivered
    ++charged;
    log_.push(e);
    for (const bool is_to : {true, false}) {
      const Coord c = is_to ? e.to : e.from;
      Degree& d = degrees_.at(c);
      if (d.in == 0 && d.out == 0) touched_.push_back(Touched{c, &d});
      ++(is_to ? d.in : d.out);
    }
  }
  if (charged == 0) return;

  const bool exempt = ScopedUnorderedDelivery::active();
  PhaseFootprint& fp = report_.per_phase[phase_label(log_.innermost())];
  ++fp.batches;
  fp.bulk_messages += charged;
  fp.max_batch = std::max(fp.max_batch, charged);
  if (exempt) ++fp.exempted_batches;
  ++report_.batches;
  report_.bulk_messages += charged;
  if (exempt) ++report_.exempted_batches;

  // Collect only the cells that break one of the rules below, so a clean
  // batch sorts nothing.
  const bool any_dead = !dead_.empty();
  std::uint32_t fan_in = 0;
  std::vector<Touched> flagged;
  for (const Touched& t : touched_) {
    const Degree& d = *t.degree;
    fan_in = std::max(fan_in, d.in);
    if ((d.in >= 2 && !exempt) ||
        (d.in >= 1 && d.out >= 1 &&
         (d.in >= 2 || d.out >= 2 || (any_dead && dead_.contains(t.at))))) {
      flagged.push_back(t);
    }
  }
  report_.max_fan_in = std::max<index_t>(report_.max_fan_in, fan_in);
  fp.max_fan_in = std::max<index_t>(fp.max_fan_in, fan_in);
  // Deterministic reports: visit conflicted cells in coordinate order.
  std::sort(flagged.begin(), flagged.end(),
            [](const Touched& a, const Touched& b) {
              return a.at.row != b.at.row ? a.at.row < b.at.row
                                          : a.at.col < b.at.col;
            });
  for (const Touched& t : flagged) {
    const Coord c = t.at;
    const Degree& d = *t.degree;
    if (d.in >= 2 && !exempt) {
      std::ostringstream os;
      os << d.in << " of " << charged
         << " batch members deliver to the same destination; delivery "
            "order within a batch is unspecified. Declare the fan-in "
            "order-free with ScopedUnorderedDelivery / "
            "CommutativeDeliveryScope, or split the round";
      record(ViolationKind::kWriteWriteConflict, c, os.str());
    }
    if (d.in >= 1 && d.out >= 1) {
      if (dead_.contains(c)) {
        std::ostringstream os;
        os << "a batch member sends from a cell another member writes, "
              "and the cell held no value at batch start (retired earlier "
              "this epoch): the read can only observe the in-batch "
              "arrival, so the round depends on intra-batch order (in-"
           << d.in << "/out-" << d.out << ")";
        record(ViolationKind::kReadWriteHazard, c, os.str());
      }
      if (d.in >= 2 || d.out >= 2) {
        std::ostringstream os;
        os << "cell relays concentrated traffic within one batch (in-"
           << d.in << "/out-" << d.out
           << "): gather and scatter fused into one round. Split into "
              "dependent batches";
        record(ViolationKind::kGatherScatterAliasing, c,
               os.str());
      }
    }
  }

  // Occupancy update happens after analysis: the hazard rule reasons
  // about the state at batch start.
  if (!any_dead) return;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    dead_.erase(e.to);
  }
}

void IndependenceChecker::on_birth(Coord at, Clock c) {
  (void)c;
  dead_.erase(at);
}

void IndependenceChecker::on_death(Coord at) { dead_.insert(at); }

void IndependenceChecker::on_phase_enter(PhaseId id) {
  log_.enter(id);
  new_epoch();
}

void IndependenceChecker::on_phase_exit(PhaseId id) {
  (void)id;  // phase balance is the conformance checker's to report
  log_.exit();
  new_epoch();
}

void IndependenceChecker::on_reset() { new_epoch(); }

}  // namespace scm
