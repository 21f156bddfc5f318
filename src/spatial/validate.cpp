#include "spatial/validate.hpp"

#include "spatial/machine.hpp"
#include "spatial/metrics.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace scm {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kMemoryCapExceeded:
      return "memory-cap-exceeded";
    case ViolationKind::kNonMonotoneClock:
      return "non-monotone-clock";
    case ViolationKind::kCorruptDistance:
      return "corrupt-distance";
    case ViolationKind::kSendFromDeadCell:
      return "send-from-dead-cell";
    case ViolationKind::kIllegalCoordinate:
      return "illegal-coordinate";
    case ViolationKind::kUnbalancedPhase:
      return "unbalanced-phase";
    case ViolationKind::kEnergyMismatch:
      return "energy-mismatch";
    case ViolationKind::kMessageCountMismatch:
      return "message-count-mismatch";
    case ViolationKind::kClockMismatch:
      return "clock-mismatch";
    case ViolationKind::kWriteWriteConflict:
      return "write-write-conflict";
    case ViolationKind::kReadWriteHazard:
      return "read-write-hazard";
    case ViolationKind::kGatherScatterAliasing:
      return "gather-scatter-aliasing";
  }
  return "unknown-violation";
}

namespace {

std::ostream& operator<<(std::ostream& os, const MessageEvent& e) {
  return os << e.from << " -> " << e.to << " d=" << e.distance << " clock=("
            << e.payload.depth << "," << e.payload.distance << ")->("
            << e.arrival.depth << "," << e.arrival.distance << ")";
}

void format_violation(std::ostream& os, const Violation& v) {
  os << to_string(v.kind) << " in phase \"" << v.phase << "\" at " << v.at
     << ": " << v.detail << "\n";
  if (!v.backtrace.empty()) {
    os << "  message backtrace (oldest first):\n";
    for (const MessageEvent& e : v.backtrace) os << "    " << e << "\n";
  }
}

}  // namespace

index_t ViolationList::count(ViolationKind kind) const {
  index_t n = 0;
  for (const Violation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

std::string ViolationList::violations_str(const char* checker) const {
  std::ostringstream os;
  os << checker << ": " << violations.size() << " violation(s)\n";
  for (const Violation& v : violations) format_violation(os, v);
  return os.str();
}

ViolationLog::ViolationLog(bool strict, std::size_t backtrace_capacity)
    : strict_(strict), capacity_(backtrace_capacity) {
  ring_.reserve(capacity_);
}

Violation ViolationLog::make(ViolationKind kind, Coord at, std::string detail,
                             const char* banner) const {
  Violation v{kind, phase_label(innermost()), at, std::move(detail), {}};
  // Unroll the ring oldest first: from the next slot to the end, then the
  // slots before it. (Until the ring fills, the next slot is its end.)
  const auto split = ring_.begin() + static_cast<std::ptrdiff_t>(next_);
  v.backtrace.reserve(ring_.size());
  v.backtrace.insert(v.backtrace.end(), split, ring_.end());
  v.backtrace.insert(v.backtrace.end(), ring_.begin(), split);
  if (strict_) {
    std::ostringstream os;
    os << "SCM_STRICT_MODEL: " << banner << "\n";
    format_violation(os, v);
    std::fputs(os.str().c_str(), stderr);
    std::fflush(stderr);
    std::abort();
  }
  return v;
}

std::string ConformanceReport::str() const {
  if (!ok()) return violations_str("conformance");
  std::ostringstream os;
  os << "conformance: ok (" << messages << " messages, energy " << energy
     << ", peak residency " << peak_residency << ")\n";
  return os.str();
}

bool ConformanceChecker::strict_model_default() {
#ifdef SCM_STRICT_MODEL
  return true;
#else
  const char* env = std::getenv("SCM_STRICT_MODEL");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
#endif
}

ConformanceChecker::ConformanceChecker(Config config)
    : config_(std::move(config)),
      log_(config_.strict, config_.backtrace_capacity) {}

void ConformanceChecker::record(ViolationKind kind, Coord at,
                                std::string detail) {
  report_.violations.push_back(log_.make(
      kind, at, std::move(detail), "model conformance violation"));
}

void ConformanceChecker::new_epoch() {
  residency_.clear();
  dead_.clear();
}

void ConformanceChecker::on_message(Coord from, Coord to, index_t distance) {
  // All message checks key off the richer on_send event, which the Machine
  // emits alongside this one.
  (void)from;
  (void)to;
  (void)distance;
}

void ConformanceChecker::on_send(const MessageEvent& e) {
  // Geometry: the reported distance must be the endpoints' Manhattan
  // distance, and zero-length sends are free — never reported.
  if (e.distance < 1 || e.distance != manhattan(e.from, e.to)) {
    std::ostringstream os;
    os << "reported distance " << e.distance << " for " << e.from << " -> "
       << e.to << " (manhattan " << manhattan(e.from, e.to) << ")";
    record(ViolationKind::kCorruptDistance, e.from, os.str());
  }
  // Clocks: components never negative, and each hop advances the clock by
  // exactly (1 message, distance).
  const Clock expected = e.payload.after_hop(e.distance);
  if (e.payload.depth < 0 || e.payload.distance < 0 ||
      e.arrival != expected) {
    std::ostringstream os;
    os << "payload (" << e.payload.depth << "," << e.payload.distance
       << ") over distance " << e.distance << " must arrive at ("
       << expected.depth << "," << expected.distance << "), got ("
       << e.arrival.depth << "," << e.arrival.distance << ")";
    record(ViolationKind::kNonMonotoneClock, e.to, os.str());
  }
  // Arena.
  if (config_.arena) {
    for (const Coord c : {e.from, e.to}) {
      if (!config_.arena->contains(c)) {
        std::ostringstream os;
        os << "endpoint " << c << " outside arena " << config_.arena->str();
        record(ViolationKind::kIllegalCoordinate, c, os.str());
      }
    }
  }
  // Liveness: a retired cell holds no value to send. Cells never seen
  // before are assumed to hold inputs (inputs pre-reside on the grid).
  if (dead_.contains(e.from)) {
    record(ViolationKind::kSendFromDeadCell, e.from,
           "send from a processor whose value was retired in this epoch");
  }
  // Residency: the arriving word now lives at the destination.
  arrive(e.to);
  // Accounting re-derivation.
  report_.energy += e.distance;
  report_.messages += 1;
  report_.max_arrival = Clock::join(report_.max_arrival, e.arrival);
  // The backtrace gains the message after its checks, so a violation's
  // backtrace ends at the message before the offending one.
  log_.push(e);
}

void ConformanceChecker::on_birth(Coord at, Clock c) {
  if (c.depth < 0 || c.distance < 0) {
    std::ostringstream os;
    os << "birth with negative clock (" << c.depth << "," << c.distance
       << ")";
    record(ViolationKind::kNonMonotoneClock, at, os.str());
  }
  arrive(at);
}

void ConformanceChecker::arrive(Coord at) {
  dead_.erase(at);
  index_t& words = residency_[at];
  ++words;
  report_.peak_residency = std::max(report_.peak_residency, words);
  if (words == config_.live_word_cap + 1) {
    std::ostringstream os;
    os << "processor accumulated " << words
       << " live words in one epoch (cap " << config_.live_word_cap << ")";
    record(ViolationKind::kMemoryCapExceeded, at, os.str());
  }
}

void ConformanceChecker::on_death(Coord at) {
  index_t& words = residency_[at];
  if (words > 0) --words;
  dead_.insert(at);
}

void ConformanceChecker::on_phase_enter(PhaseId id) {
  log_.enter(id);
  new_epoch();
}

void ConformanceChecker::on_phase_exit(PhaseId id) {
  const PhaseId innermost = log_.innermost();
  if (innermost == kNoPhase) {
    record(ViolationKind::kUnbalancedPhase, Coord{},
           "phase \"" + phase_label(id) + "\" exited but never entered");
  } else {
    // Machines share one checker; exits must match the innermost entry.
    if (innermost != id) {
      record(ViolationKind::kUnbalancedPhase, Coord{},
             "phase \"" + phase_label(id) + "\" exited while \"" +
                 phase_label(innermost) + "\" is innermost");
    }
    log_.exit();
  }
  new_epoch();
}

void ConformanceChecker::on_reset() { new_epoch(); }

void ConformanceChecker::finish() {
  while (log_.innermost() != kNoPhase) {
    record(ViolationKind::kUnbalancedPhase, Coord{},
           "phase \"" + phase_label(log_.innermost()) +
               "\" entered but never exited");
    log_.exit();
  }
}

void ConformanceChecker::verify(const Machine& m) {
  finish();
  const Metrics& got = m.metrics();
  if (got.energy != report_.energy) {
    std::ostringstream os;
    os << "machine reports energy " << got.energy
       << ", message stream re-derives " << report_.energy;
    record(ViolationKind::kEnergyMismatch, Coord{}, os.str());
  }
  if (got.messages != report_.messages) {
    std::ostringstream os;
    os << "machine reports " << got.messages
       << " messages, message stream re-derives " << report_.messages;
    record(ViolationKind::kMessageCountMismatch, Coord{}, os.str());
  }
  if (Clock::join(got.max_clock, report_.max_arrival) != got.max_clock) {
    std::ostringstream os;
    os << "machine max clock (" << got.max_clock.depth << ","
       << got.max_clock.distance << ") below observed arrival ("
       << report_.max_arrival.depth << "," << report_.max_arrival.distance
       << ")";
    record(ViolationKind::kClockMismatch, Coord{}, os.str());
  }
}

ScopedGlobalTraceSuspension::ScopedGlobalTraceSuspension()
    : saved_(Machine::global_trace()) {
  Machine::set_global_trace(nullptr);
}

ScopedGlobalTraceSuspension::~ScopedGlobalTraceSuspension() {
  Machine::set_global_trace(saved_);
}

}  // namespace scm
