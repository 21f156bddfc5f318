// scm — energy-optimal and low-depth algorithmic primitives for spatial
// dataflow architectures (Spatial Computer Model).
//
// This is the library's public umbrella header. It exposes:
//
//   Substrate (Section III)
//     scm::Machine, scm::GridArray, scm::Rect/Coord, Z-order utilities,
//     cost metrics (energy / depth / distance).
//
//   Communication collectives (Section IV)
//     scm::broadcast, scm::reduce, scm::all_reduce — O(hw + h log h)
//     energy, O(log n) depth;
//     scm::scan, scm::segmented_scan — Theta(n) energy, O(log n) depth,
//     Theta(sqrt n) distance (Lemma IV.3);
//     baselines: sequential_scan, tree_scan_1d, binomial_* collectives.
//
//   Sorting (Section V)
//     scm::mergesort2d — Theta(n^{3/2}) energy (optimal, Cor. V.2),
//     O(log^3 n) depth, Theta(sqrt n) distance (Theorem V.8);
//     scm::bitonic_sort / bitonic_sort_stable — Theta(log^2 n) depth,
//     Theta(n^{3/2} log n) energy (Lemma V.4);
//     scm::allpairs_sort, scm::merge2d, scm::rank_select_two_sorted,
//     scm::permute.
//
//   Rank selection (Section VI)
//     scm::select_rank, scm::select_median — Theta(n) energy, O(log^2 n)
//     depth w.h.p. (Theorem VI.3).
//
//   PRAM simulation (Section VII)
//     scm::pram::simulate_erew (Lemma VII.1), scm::pram::simulate_crcw
//     (Lemma VII.2), sample programs.
//
//   Sparse matrix-vector multiplication (Section VIII)
//     scm::spmv — Theta(m^{3/2}) energy, O(log^3 n) depth (Thm VIII.2);
//     scm::spmv_pram — the PRAM-simulation baseline; COO containers and
//     workload generators.
#pragma once

#include "collectives/baselines.hpp"   // IWYU pragma: export
#include "collectives/broadcast.hpp"   // IWYU pragma: export
#include "collectives/compact.hpp"     // IWYU pragma: export
#include "collectives/operators.hpp"   // IWYU pragma: export
#include "collectives/reduce.hpp"      // IWYU pragma: export
#include "collectives/scan.hpp"        // IWYU pragma: export
#include "graph/components.hpp"        // IWYU pragma: export
#include "pram/crcw.hpp"               // IWYU pragma: export
#include "pram/erew.hpp"               // IWYU pragma: export
#include "pram/programs.hpp"           // IWYU pragma: export
#include "select/select.hpp"           // IWYU pragma: export
#include "solvers/solvers.hpp"         // IWYU pragma: export
#include "sort/histogram.hpp"          // IWYU pragma: export
#include "sort/sort.hpp"               // IWYU pragma: export
#include "spatial/congestion.hpp"      // IWYU pragma: export
#include "spatial/grid_array.hpp"      // IWYU pragma: export
#include "spatial/machine.hpp"         // IWYU pragma: export
#include "spatial/profile.hpp"         // IWYU pragma: export
#include "spatial/rng.hpp"             // IWYU pragma: export
#include "spatial/trace.hpp"           // IWYU pragma: export
#include "spmv/generators.hpp"         // IWYU pragma: export
#include "spmv/mm_io.hpp"              // IWYU pragma: export
#include "spmv/pram_spmv.hpp"          // IWYU pragma: export
#include "spmv/spmm.hpp"               // IWYU pragma: export
#include "spmv/spmv.hpp"               // IWYU pragma: export

#include <string>

namespace scm {

/// Library version string (semantic versioning).
[[nodiscard]] const char* version();

/// Renders the machine's accumulated costs and per-phase breakdown as a
/// human-readable report (used by the examples).
[[nodiscard]] std::string cost_report(const Machine& m);

}  // namespace scm
