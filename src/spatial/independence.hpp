// Batch-independence analysis for the Spatial Computer Model simulator.
//
// The bulk-transfer engine (Machine::send_bulk and the round loops built
// on it — routing, bitonic exchange, the 2-D merge, the binomial
// collectives) charges a whole round of messages as one batch. That is
// only a legal rewrite of the per-message model when the batch members are
// *independent*: the model delivers a round's messages concurrently, so
// nothing inside one batch may depend on the order the engine happens to
// process entries in. This is exactly the property the planned sharded
// multi-threaded simulation core relies on to merge tile-local results
// deterministically; until this module, it was argued per call site in
// comments. The IndependenceChecker turns the argument into an enforced,
// testable contract.
//
// The checker is a TraceSink (same shape as the ConformanceChecker in
// spatial/validate.hpp). Attach it per-machine (Machine::set_trace) or
// process-wide (Machine::set_global_trace — the test harness attaches it
// next to the conformance checker through a FanoutSink) and it inspects
// every send_bulk batch — which is also how GridArray::send_elements,
// route_permutation, and every library round loop charge — and flags:
//
//   * write-write conflicts — two or more charged batch members deliver
//     to the same destination cell. Destination write order within a
//     batch is unspecified (a parallel engine may apply entries in any
//     order), so same-destination fan-in is a race unless the algorithm
//     declares delivery order immaterial (see the exemption below).
//   * read-write hazards — a member sends *from* a cell that another
//     member writes, when that cell held no value at batch start (it was
//     retired by Machine::death earlier in the current epoch). The only
//     value the read could observe is the in-batch arrival, so the round
//     provably depends on intra-batch ordering. Cells that already held a
//     value may legally be both source and destination in one round
//     (synchronous-round semantics: every payload is captured before any
//     delivery — the API contract of send_bulk/send_elements), which is
//     why exchange, shift, and permutation rounds pass; a read of an
//     in-batch overwrite of a previously-occupied cell is indistinguishable
//     at trace granularity and is NOT flagged (see docs/MODEL.md).
//   * gather/scatter aliasing — a cell that both receives and relays
//     concentrated traffic within a single batch (in-degree and out-degree
//     both >= 1, and either >= 2). A hub cell forwarding what it receives
//     in the same round is the canonical round-fusion bug (e.g. merging a
//     gather batch with its dependent scatter); it fires even under the
//     unordered-delivery exemption, because no delivery-order declaration
//     makes a value available before the round that delivers it ends.
//
// Exemption: legitimately order-free fan-in (a commutative reduction, or
// distinct words parked on one cell and locally re-ordered under a strict
// total order, as in the 2-D merge's gather-sort-scatter base case) is
// declared with a ScopedUnorderedDelivery RAII scope, or its compile-time
// checked wrapper CommutativeDeliveryScope<Op> (collectives/operators.hpp)
// which only instantiates for operators annotated commutative via
// OpTraits. Exempt batches still run the aliasing check and are counted
// separately in the report.
//
// Violations carry the innermost phase name, the offending coordinate, and
// a ring buffer of the most recent messages (including the offending
// batch). Under strict mode — SCM_STRICT_MODEL as build option or
// environment variable, exactly like the conformance checker — the first
// violation prints its report to stderr and aborts; otherwise violations
// accumulate into a queryable IndependenceReport with per-phase batch
// footprints, which the Profiler exports into the versioned JSON run
// report (docs/OBSERVABILITY.md) so CI can assert zero conflicts from
// artifacts.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/trace.hpp"

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace scm {

/// What an IndependenceChecker can catch.
enum class IndependenceViolationKind {
  kWriteWriteConflict,     // same-destination fan-in without an exemption
  kReadWriteHazard,        // a member reads a cell only written in-batch
  kGatherScatterAliasing,  // a cell relays concentrated traffic in-batch
};

/// Human-readable name of a violation kind ("write-write-conflict", ...).
[[nodiscard]] const char* to_string(IndependenceViolationKind kind);

/// One detected violation with its forensic context.
struct IndependenceViolation {
  IndependenceViolationKind kind{};
  std::string phase;    // innermost phase at detection; "<top>" when none
  Coord at{};           // the conflicted cell
  std::string detail;   // specifics: degrees, occupancy, batch size
  std::vector<MessageEvent> backtrace;  // recent messages, oldest first
};

/// Per-phase batch footprint summary (keyed by innermost phase name).
struct PhaseFootprint {
  index_t batches{0};           // send_bulk calls with >= 1 charged entry
  index_t bulk_messages{0};     // charged entries across those batches
  index_t max_batch{0};         // largest charged batch
  index_t max_fan_in{0};        // largest per-cell in-degree in one batch
  index_t exempted_batches{0};  // batches under ScopedUnorderedDelivery
  index_t conflicts{0};         // violations recorded in this phase
};

/// Queryable result of a checked execution.
struct IndependenceReport {
  std::vector<IndependenceViolation> violations;
  index_t batches{0};
  index_t bulk_messages{0};
  index_t exempted_batches{0};
  index_t max_fan_in{0};
  std::map<std::string, PhaseFootprint> per_phase;

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// Number of violations of the given kind.
  [[nodiscard]] index_t count(IndependenceViolationKind kind) const;

  /// Multi-line human-readable report (one block per violation).
  [[nodiscard]] std::string str() const;
};

/// RAII declaration that, within this scope, delivery order onto a shared
/// destination is immaterial — same-destination fan-in inside one batch is
/// legal. Use for commutative reductions (prefer the compile-time checked
/// CommutativeDeliveryScope<Op> in collectives/operators.hpp) and for
/// gather steps that park distinct words on one cell and re-order them
/// locally under a strict total order. The scope must carry a reason
/// string: the exemption is an auditable claim, not an off switch. Scopes
/// nest; the aliasing check stays active inside them.
class ScopedUnorderedDelivery {
 public:
  explicit ScopedUnorderedDelivery(const char* reason);
  ~ScopedUnorderedDelivery();
  ScopedUnorderedDelivery(const ScopedUnorderedDelivery&) = delete;
  ScopedUnorderedDelivery& operator=(const ScopedUnorderedDelivery&) =
      delete;

  /// True when any scope is active (consulted by every checker).
  [[nodiscard]] static bool active();

  /// The innermost active scope's reason; nullptr when none.
  [[nodiscard]] static const char* reason();

 private:
  const char* prev_reason_;
};

/// TraceSink that enforces batch independence on every bulk event.
class IndependenceChecker final : public TraceSink {
 public:
  struct Config {
    /// Abort on the first violation instead of accumulating. Defaults to
    /// strict_model_default() (the SCM_STRICT_MODEL build option or
    /// environment variable, shared with the conformance checker).
    bool strict{strict_model_default()};

    /// Messages retained for each violation's backtrace.
    std::size_t backtrace_capacity{16};
  };

  IndependenceChecker() : IndependenceChecker(Config{}) {}
  explicit IndependenceChecker(Config config);

  // TraceSink events.
  void on_message(Coord from, Coord to, index_t distance) override;
  void on_send(const MessageEvent& e) override;
  void on_send_bulk(std::span<const MessageEvent> batch) override;
  void on_birth(Coord at, Clock c) override;
  void on_death(Coord at) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  void on_reset() override;

  [[nodiscard]] const IndependenceReport& report() const { return report_; }

  /// Mirrors ConformanceChecker::strict_model_default(): true when
  /// SCM_STRICT_MODEL was defined at build time or is set (to anything but
  /// "" or "0") in the environment.
  [[nodiscard]] static bool strict_model_default();

 private:
  void record(IndependenceViolationKind kind, Coord at, std::string detail);
  void ring_push(const MessageEvent& e);
  void new_epoch();
  [[nodiscard]] std::string current_phase() const;

  Config config_;
  IndependenceReport report_;
  std::vector<PhaseId> phase_stack_;
  // Cells retired (Machine::death) in the current epoch and not revived by
  // a later arrival or birth: the occupancy knowledge behind the sound
  // read-write-hazard rule.
  std::unordered_set<Coord, CoordHash> dead_;
  std::vector<MessageEvent> ring_;
  std::size_t ring_next_{0};
};

}  // namespace scm
