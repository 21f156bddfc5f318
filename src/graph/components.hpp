// Connected components on the spatial machine — a worked demonstration
// that the paper's primitives compose into graph algorithms (the "graph
// algorithms" motivation of Section I).
//
// Min-label propagation over the SpMV pipeline skeleton (Section VIII)
// under the (min, right) semiring:
//   * once: sort the (doubled) edge list by head vertex, then by tail
//     vertex, with the 2-D Mergesort — O(m^{3/2}) energy, paid a single
//     time because the routing pattern is static across rounds;
//   * per round: fetch each head segment's current label (leader fetch +
//     segmented broadcast), take a segmented MIN per tail vertex, update
//     labels, and count changes with an all-reduce — O(m + n sqrt(m))
//     energy, O(log n) depth per round;
//   * stop when a round changes nothing. Rounds needed = the graph
//     diameter (logical; each round is a bulk data-parallel step).
//
// Total: O(m^{3/2} + D (m + n sqrt m)) energy with O(D log n) depth for a
// diameter-D graph.
#pragma once

#include "spatial/machine.hpp"
#include "spmv/coo.hpp"

#include <vector>

namespace scm::graph {

/// An undirected graph as an edge list over vertices [0, n).
struct EdgeList {
  index_t n_vertices{0};
  std::vector<std::pair<index_t, index_t>> edges;
};

/// Result of a components run.
struct ComponentsResult {
  std::vector<index_t> label;  ///< per vertex: the smallest vertex id in
                               ///< its component
  index_t components{0};
  index_t rounds{0};
};

/// Computes connected components by spatial min-label propagation.
/// Throws std::invalid_argument, before charging anything, for a negative
/// n_vertices or an edge endpoint outside [0, n_vertices).
[[nodiscard]] ComponentsResult connected_components(Machine& m,
                                                    const EdgeList& graph);

/// Host reference (union-find) used by tests.
[[nodiscard]] std::vector<index_t> reference_components(
    const EdgeList& graph);

}  // namespace scm::graph
