// A/B metrics-equivalence harness for the bulk-charging engine.
//
// Machine::send_bulk / birth_bulk / death_bulk promise to be
// *metrics-identical* to their scalar per-event decompositions: same
// Metrics totals, same per-phase records, same conformance verdict. This
// harness makes that contract testable: run_ab executes an algorithm once,
// on the bulk fast path, while recording its event stream. It then replays
// the stream one scalar call per event (send, op, observe, birth, death,
// begin_phase, end_phase, reset) into a fresh Machine; every batch arrives
// entry by entry, so the replay is the scalar reference. Each run has its
// own ConformanceChecker plus a CongestionMap (so the batched on_send_bulk
// link decomposition is proven byte-identical to the per-message one, link
// by link), and the two runs are compared field by field.
// tests/test_bulk_equivalence.cpp drives every Table-1 algorithm through
// it.
#pragma once

#include "spatial/congestion.hpp"
#include "spatial/machine.hpp"
#include "spatial/metrics.hpp"
#include "spatial/parallel.hpp"

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace scm {

/// One run of the algorithm, live on the bulk path or replayed scalar.
struct AbRun {
  Metrics totals{};
  std::map<std::string, Metrics> phases;
  /// Canonical per-link occupancy (CongestionMap::sorted_links) — the
  /// scalar run records the per-message replay, the bulk run the batched
  /// on_send_bulk decomposition.
  std::vector<std::pair<Link, index_t>> links;
  index_t congested_clock{0};
  bool conformance_ok{false};
  std::string conformance_report;  ///< empty when clean
};

/// The two runs and their comparison.
struct AbResult {
  AbRun scalar;
  AbRun bulk;
  bool totals_equal{false};
  bool phases_equal{false};
  bool links_equal{false};  ///< per-link occupancy + congested clock

  /// True when totals, per-phase records, and per-link occupancy match
  /// exactly and both runs were conformance-clean.
  [[nodiscard]] bool ok() const {
    return totals_equal && phases_equal && links_equal &&
           scalar.conformance_ok && bulk.conformance_ok;
  }

  /// Multi-line description of every mismatch; empty when ok().
  [[nodiscard]] std::string diff() const;
};

/// Runs `algorithm` once on a fresh Machine, on the bulk fast path, and
/// replays its recorded event stream one scalar call per event into a
/// second fresh Machine, the scalar reference. Each is traced by a
/// non-strict ConformanceChecker (verified at the end); Metrics totals,
/// per-phase maps and link occupancy are compared for exact equality. The
/// callback receives the Machine to run on; its events must reach that
/// Machine's trace sink, which the harness attaches before the call.
[[nodiscard]] AbResult run_ab(const std::function<void(Machine&)>& algorithm);

/// The default engine shape of the three-way harness: 4 workers, 64x64
/// tiles, min_parallel_batch 1 so even the smallest test batches exercise
/// the sharded path instead of silently staying serial.
[[nodiscard]] inline parallel::Config abc_default_config() {
  parallel::Config cfg;
  cfg.threads = 4;
  cfg.tile_rows = 64;
  cfg.tile_cols = 64;
  cfg.min_parallel_batch = 1;
  return cfg;
}

/// Three runs — scalar replay, serial bulk, sharded parallel — and their
/// comparison. `parallel` executes under a ScopedParallelEngine and
/// records its links through a ShardedCongestionMap with the engine's
/// tiling, so a mismatch localizes to either the engine's merged charging
/// or the sharded link decomposition.
struct AbcResult {
  AbRun scalar;
  AbRun bulk;
  AbRun parallel;
  bool totals_equal{false};  ///< all three byte-identical
  bool phases_equal{false};
  bool links_equal{false};  ///< per-link occupancy + congested clock

  /// True when every exported number matches across all three runs and
  /// every run was conformance-clean.
  [[nodiscard]] bool ok() const {
    return totals_equal && phases_equal && links_equal &&
           scalar.conformance_ok && bulk.conformance_ok &&
           parallel.conformance_ok;
  }

  /// Multi-line description of every mismatch; empty when ok().
  [[nodiscard]] std::string diff() const;
};

/// Runs `algorithm` as run_ab does (serial bulk, then its scalar replay),
/// then once more under the sharded parallel engine configured by `cfg`,
/// and compares Metrics totals, per-phase maps, link occupancies, and
/// congested clocks for exact (bit-identical) equality. The process-wide
/// engine configuration is restored on return.
/// tests/test_bulk_equivalence.cpp drives every Table-1 algorithm through
/// this.
[[nodiscard]] AbcResult run_abc(
    const std::function<void(Machine&)>& algorithm,
    const parallel::Config& cfg = abc_default_config());

}  // namespace scm
