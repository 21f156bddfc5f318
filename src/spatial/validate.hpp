// Model-conformance checking for the Spatial Computer Model simulator.
//
// The paper's cost lemmas hold only when algorithms respect the model's
// preconditions (Section III): O(1) live words per processor, honest
// (depth, distance) clocks that advance monotonically across every hop,
// and energy equal to the sum of all messages' Manhattan distances. The
// Machine *charges* costs but historically trusted every algorithm to
// respect those preconditions; the ConformanceChecker enforces them.
//
// The checker is a TraceSink. Attach it per-machine (Machine::set_trace)
// or process-wide (Machine::set_global_trace — how the test harness runs
// every tier-1 test under enforcement) and it verifies, on every event:
//
//   * residency  — net arrivals per processor within one *epoch* (a window
//     between phase boundaries / machine resets) stay under a configurable
//     O(1) cap. Algorithms wrap stages in PhaseScopes, so a conforming
//     execution never parks more than O(1) words on a cell per stage; a
//     cell absorbing Θ(√n) words in one stage is flagged. Machine::birth /
//     Machine::death refine the accounting for explicit input placement
//     and value retirement.
//   * clocks     — every arrival clock equals payload.after_hop(distance),
//     components never go negative, and the reported distance matches the
//     endpoints' Manhattan distance (and is >= 1: zero-length sends are
//     free and must not be reported).
//   * liveness   — no sends from a processor whose value was declared dead
//     (Machine::death) in the current epoch; unknown processors are
//     assumed to hold input values, matching the model where inputs
//     pre-reside on the grid.
//   * geometry   — optionally, all endpoints stay inside a declared arena
//     rectangle.
//   * accounting — verify(machine) re-derives energy, message count, and
//     the max arrival clock from the raw event stream and cross-checks
//     them against the machine's Metrics.
//   * phases     — finish() reports phase scopes entered but never exited.
//
// Violations carry the innermost phase name, the offending coordinate, and
// a ring buffer of the most recent messages (the "message backtrace").
// Under strict mode — compile with SCM_STRICT_MODEL or set the
// SCM_STRICT_MODEL environment variable — the first violation prints its
// report to stderr and aborts, pinpointing the offending send; otherwise
// violations accumulate into a queryable ConformanceReport.
//
// The IndependenceChecker (spatial/independence.hpp) reports through the
// same pieces: one ViolationKind, one Violation, one ViolationList behind
// both reports, and one ViolationLog per checker that stamps the phase and
// backtrace and owns the strict abort.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace scm {

class Machine;

/// What the two model checkers can catch: the ConformanceChecker's nine
/// kinds, then the IndependenceChecker's three (spatial/independence.hpp).
enum class ViolationKind {
  kMemoryCapExceeded,      // a cell holds more than the O(1) live-word cap
  kNonMonotoneClock,       // arrival clock != payload.after_hop(distance)
  kCorruptDistance,        // distance < 1 or != manhattan(from, to)
  kSendFromDeadCell,       // send from a cell whose value was retired
  kIllegalCoordinate,      // endpoint outside the declared arena
  kUnbalancedPhase,        // phase entered but never exited
  kEnergyMismatch,         // re-derived energy != Metrics::energy
  kMessageCountMismatch,   // re-derived count != Metrics::messages
  kClockMismatch,          // Metrics::max_clock below an observed arrival
  kWriteWriteConflict,     // same-destination fan-in without an exemption
  kReadWriteHazard,        // a member reads a cell only written in-batch
  kGatherScatterAliasing,  // a cell relays concentrated traffic in-batch
};

/// Human-readable name of a violation kind ("memory-cap-exceeded", ...).
[[nodiscard]] const char* to_string(ViolationKind kind);

/// One detected violation with its forensic context.
struct Violation {
  ViolationKind kind{};
  std::string phase;    // innermost phase at detection; "<top>" when none
  Coord at{};           // offending processor (or {0,0} for global checks)
  std::string detail;   // specifics: counts, clocks, names
  std::vector<MessageEvent> backtrace;  // recent messages, oldest first
};

/// The violations a checker recorded; both checkers' reports extend it.
struct ViolationList {
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// Number of violations of the given kind.
  [[nodiscard]] index_t count(ViolationKind kind) const;

  /// "<checker>: N violation(s)" and one block per violation: the report
  /// text of a run that is not ok.
  [[nodiscard]] std::string violations_str(const char* checker) const;
};

/// The forensic context both checkers attach to a violation, and their
/// one strict-abort path. It mirrors the Machine's phase stack as interned
/// ids (a transition costs an integer push or pop; names are looked up
/// only when a violation is made) and keeps a ring of the most recent
/// messages.
class ViolationLog {
 public:
  ViolationLog(bool strict, std::size_t backtrace_capacity);

  void enter(PhaseId id) { stack_.push_back(id); }
  /// Pops the innermost phase; no-op when none is open.
  void exit() {
    if (!stack_.empty()) stack_.pop_back();
  }
  /// The innermost open phase; kNoPhase when none.
  [[nodiscard]] PhaseId innermost() const {
    return stack_.empty() ? kNoPhase : stack_.back();
  }

  /// Appends `e` to the backtrace ring, overwriting the oldest message
  /// once the ring is full. Inline: the IndependenceChecker pushes once
  /// per batch entry.
  void push(const MessageEvent& e) {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[next_] = e;
    }
    if (++next_ == capacity_) next_ = 0;
  }

  /// The violation of `kind` at `at`, stamped with the innermost phase and
  /// the ring's messages oldest first. Under strict mode it instead prints
  /// "SCM_STRICT_MODEL: <banner>" and the violation to stderr and aborts.
  [[nodiscard]] Violation make(ViolationKind kind, Coord at,
                               std::string detail, const char* banner) const;

 private:
  bool strict_;
  std::size_t capacity_;
  std::vector<PhaseId> stack_;
  std::vector<MessageEvent> ring_;
  std::size_t next_{0};  ///< slot of the next push (the oldest when full)
};

/// Queryable result of a checked execution.
struct ConformanceReport : ViolationList {
  index_t energy{0};         // re-derived from the message stream
  index_t messages{0};       // re-derived from the message stream
  Clock max_arrival{};       // join over all arrival clocks
  index_t peak_residency{0}; // largest per-cell epoch residency observed

  /// Multi-line human-readable report (one block per violation).
  [[nodiscard]] std::string str() const;
};

/// TraceSink that enforces the model's preconditions on every event.
class ConformanceChecker final : public TraceSink {
 public:
  struct Config {
    /// Largest number of live words one processor may accumulate within a
    /// single epoch. The paper's algorithms keep O(1) words per cell; the
    /// library's largest declared constant is the 2-D merge's
    /// gather-sort-scatter base case (kMergeBaseSize = 8 words on the
    /// corner processor), so the default leaves generous headroom over
    /// that (and over moderate MergeConfig::base_size ablations) while
    /// still catching a cell that hoards Θ(√n) words.
    index_t live_word_cap{48};

    /// When set, every message endpoint must lie inside this rectangle.
    std::optional<Rect> arena;

    /// Abort on the first violation instead of accumulating. Defaults to
    /// strict_model_default() (the SCM_STRICT_MODEL build option or
    /// environment variable).
    bool strict{strict_model_default()};

    /// Messages retained for each violation's backtrace.
    std::size_t backtrace_capacity{16};
  };

  ConformanceChecker() : ConformanceChecker(Config{}) {}
  explicit ConformanceChecker(Config config);

  // TraceSink events.
  void on_message(Coord from, Coord to, index_t distance) override;
  void on_send(const MessageEvent& e) override;
  void on_birth(Coord at, Clock c) override;
  void on_death(Coord at) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  void on_reset() override;

  /// End-of-run structural checks (currently: phase balance). Idempotent
  /// per imbalance; call once when the traced execution is over.
  void finish();

  /// finish(), then cross-check the re-derived energy / message count /
  /// max arrival clock against the machine's accumulated Metrics. Only
  /// meaningful when the checker observed the machine's whole life (attach
  /// before the first send; don't reset the machine mid-trace).
  void verify(const Machine& m);

  [[nodiscard]] const ConformanceReport& report() const { return report_; }

  /// True when SCM_STRICT_MODEL was defined at build time or is set (to
  /// anything but "" or "0") in the environment — one env var reproduces
  /// the CI strict-model run locally without a rebuild.
  [[nodiscard]] static bool strict_model_default();

 private:
  void record(ViolationKind kind, Coord at, std::string detail);
  /// A word arrives at `at` (a send's destination or a birth): the cell is
  /// revived, counts one more live word, and is checked against the cap.
  void arrive(Coord at);
  void new_epoch();

  Config config_;
  ConformanceReport report_;
  ViolationLog log_;
  std::unordered_map<Coord, index_t, CoordHash> residency_;
  std::unordered_set<Coord, CoordHash> dead_;
};

/// RAII detachment of the process-global trace sink. Tests that
/// *deliberately* violate the model (the adversarial fixtures) run inside
/// one of these so the enforcing harness listener doesn't fail the test.
class ScopedGlobalTraceSuspension {
 public:
  ScopedGlobalTraceSuspension();
  ~ScopedGlobalTraceSuspension();
  ScopedGlobalTraceSuspension(const ScopedGlobalTraceSuspension&) = delete;
  ScopedGlobalTraceSuspension& operator=(const ScopedGlobalTraceSuspension&) =
      delete;

 private:
  TraceSink* saved_;
};

}  // namespace scm
