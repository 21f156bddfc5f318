#include "spatial/independence.hpp"

#include "spatial/phase.hpp"
#include "spatial/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace scm {

namespace {

// The simulator is single-threaded (the analyzer is the gate *for* the
// future sharded engine), so a plain process-global suffices. The reason
// chain restores on scope exit, giving reports the innermost claim.
int g_unordered_depth = 0;
const char* g_unordered_reason = nullptr;

std::ostream& operator<<(std::ostream& os, const MessageEvent& e) {
  return os << e.from << " -> " << e.to << " d=" << e.distance << " clock=("
            << e.payload.depth << "," << e.payload.distance << ")->("
            << e.arrival.depth << "," << e.arrival.distance << ")";
}

void format_violation(std::ostream& os, const IndependenceViolation& v) {
  os << to_string(v.kind) << " in phase \"" << v.phase << "\" at " << v.at
     << ": " << v.detail << "\n";
  if (!v.backtrace.empty()) {
    os << "  message backtrace (oldest first):\n";
    for (const MessageEvent& e : v.backtrace) os << "    " << e << "\n";
  }
}

}  // namespace

const char* to_string(IndependenceViolationKind kind) {
  switch (kind) {
    case IndependenceViolationKind::kWriteWriteConflict:
      return "write-write-conflict";
    case IndependenceViolationKind::kReadWriteHazard:
      return "read-write-hazard";
    case IndependenceViolationKind::kGatherScatterAliasing:
      return "gather-scatter-aliasing";
  }
  return "unknown-violation";
}

index_t IndependenceReport::count(IndependenceViolationKind kind) const {
  index_t n = 0;
  for (const IndependenceViolation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

std::string IndependenceReport::str() const {
  std::ostringstream os;
  if (ok()) {
    os << "independence: ok (" << batches << " batches, " << bulk_messages
       << " bulk messages, " << exempted_batches << " exempted, max fan-in "
       << max_fan_in << ")\n";
    return os.str();
  }
  os << "independence: " << violations.size() << " violation(s)\n";
  for (const IndependenceViolation& v : violations) format_violation(os, v);
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

bool IndependenceChecker::strict_model_default() {
  return ConformanceChecker::strict_model_default();
}

IndependenceChecker::IndependenceChecker(Config config) : config_(config) {
  ring_.reserve(config_.backtrace_capacity);
}

std::string IndependenceChecker::current_phase() const {
  return phase_stack_.empty()
             ? std::string("<top>")
             : PhaseRegistry::instance().name(phase_stack_.back());
}

void IndependenceChecker::record(IndependenceViolationKind kind, Coord at,
                                 std::string detail) {
  IndependenceViolation v{kind, current_phase(), at, std::move(detail), {}};
  // Unroll the ring buffer oldest-first.
  v.backtrace.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    v.backtrace.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  if (config_.strict) {
    std::ostringstream os;
    os << "SCM_STRICT_MODEL: batch-independence violation\n";
    format_violation(os, v);
    std::fputs(os.str().c_str(), stderr);
    std::fflush(stderr);
    std::abort();
  }
  ++report_.per_phase[v.phase].conflicts;
  report_.violations.push_back(std::move(v));
}

void IndependenceChecker::ring_push(const MessageEvent& e) {
  if (config_.backtrace_capacity == 0) return;
  if (ring_.size() < config_.backtrace_capacity) {
    ring_.push_back(e);
    ring_next_ = ring_.size() % config_.backtrace_capacity;
  } else {
    ring_[ring_next_] = e;
    ring_next_ = (ring_next_ + 1) % ring_.size();
  }
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
  ring_push(e);
}

void IndependenceChecker::on_send_bulk(
    std::span<const MessageEvent> batch) {
  // One pass over the charged entries builds the per-cell in/out degrees.
  struct Degrees {
    index_t in{0};
    index_t out{0};
  };
  std::unordered_map<Coord, Degrees, CoordHash> deg;
  deg.reserve(batch.size() * 2);
  index_t charged = 0;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;  // free in the model, never delivered
    ++charged;
    ++deg[e.to].in;
    ++deg[e.from].out;
    ring_push(e);
  }
  if (charged == 0) return;

  const bool exempt = ScopedUnorderedDelivery::active();
  PhaseFootprint& fp = report_.per_phase[current_phase()];
  ++fp.batches;
  fp.bulk_messages += charged;
  fp.max_batch = std::max(fp.max_batch, charged);
  if (exempt) ++fp.exempted_batches;
  ++report_.batches;
  report_.bulk_messages += charged;
  if (exempt) ++report_.exempted_batches;

  // Collect only the cells that break one of the rules below, so a clean
  // batch sorts nothing.
  std::vector<std::pair<Coord, Degrees>> flagged;
  for (const auto& [c, d] : deg) {
    report_.max_fan_in = std::max(report_.max_fan_in, d.in);
    fp.max_fan_in = std::max(fp.max_fan_in, d.in);
    if ((d.in >= 2 && !exempt) ||
        (d.in >= 1 && d.out >= 1 &&
         (d.in >= 2 || d.out >= 2 || dead_.contains(c)))) {
      flagged.emplace_back(c, d);
    }
  }
  // Deterministic reports: visit conflicted cells in coordinate order
  // (the degree map's iteration order is not stable across platforms).
  std::sort(flagged.begin(), flagged.end(),
            [](const auto& a, const auto& b) {
              return a.first.row != b.first.row
                         ? a.first.row < b.first.row
                         : a.first.col < b.first.col;
            });
  for (const auto& [c, d] : flagged) {
    if (d.in >= 2 && !exempt) {
      std::ostringstream os;
      os << d.in << " of " << charged
         << " batch members deliver to the same destination; delivery "
            "order within a batch is unspecified. Declare the fan-in "
            "order-free with ScopedUnorderedDelivery / "
            "CommutativeDeliveryScope, or split the round";
      record(IndependenceViolationKind::kWriteWriteConflict, c, os.str());
    }
    if (d.in >= 1 && d.out >= 1) {
      if (dead_.contains(c)) {
        std::ostringstream os;
        os << "a batch member sends from a cell another member writes, "
              "and the cell held no value at batch start (retired earlier "
              "this epoch): the read can only observe the in-batch "
              "arrival, so the round depends on intra-batch order (in-"
           << d.in << "/out-" << d.out << ")";
        record(IndependenceViolationKind::kReadWriteHazard, c, os.str());
      }
      if (d.in >= 2 || d.out >= 2) {
        std::ostringstream os;
        os << "cell relays concentrated traffic within one batch (in-"
           << d.in << "/out-" << d.out
           << "): gather and scatter fused into one round. Split into "
              "dependent batches";
        record(IndependenceViolationKind::kGatherScatterAliasing, c,
               os.str());
      }
    }
  }

  // Occupancy update happens after analysis: the hazard rule reasons
  // about the state at batch start.
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
  phase_stack_.push_back(id);
  new_epoch();
}

void IndependenceChecker::on_phase_exit(PhaseId id) {
  (void)id;  // phase balance is the conformance checker's to report
  if (!phase_stack_.empty()) phase_stack_.pop_back();
  new_epoch();
}

void IndependenceChecker::on_reset() { new_epoch(); }

}  // namespace scm
