// Euler-tour construction on the Spatial Computer Model.
//
// Roots an unrooted tree and linearizes it: the 2(n-1) directed arcs of
// the doubled edge list are arranged in Euler-circuit order starting at
// the root's first arc, giving every vertex its parent, depth, and the
// first/last tour occurrence — the substrate rootfix/leaffix reductions
// (tree/reductions.hpp) and LCA (tree/lca.hpp) build on.
//
// Pipeline (all placement derived from `origin`, so the whole run is
// translation-invariant):
//   1. sort      — one mergesort2d of the arcs by (head vertex, arc id):
//                  arcs of a vertex become one contiguous segment.
//   2. segments  — neighbour hand-offs + a segmented First-broadcast give
//                  every arc its segment start position.
//   3. succ      — each arc computes the circuit successor OF ITS TWIN
//                  (the arc after itself, cyclically, in its own segment)
//                  and sends it across the twin bijection.
//   4. jump      — Wyllie pointer jumping over the successor list:
//                  O(log n) rounds of one request + one reply batch,
//                  each round in its own phase so the conformance
//                  checker's O(1)-residency window sees two arrivals per
//                  cell per epoch.
//   5. orient    — twin-rank exchange; an arc is a *down* arc iff its
//                  rank precedes its twin's.
//   6. route     — one permutation routing by rank into the tour square.
//   7. depth     — a +-1 prefix scan over the tour gives the depth of
//                  every arc's head.
//   8. deliver   — each down arc sends {parent, depth, first, last} to
//                  its head vertex's cell.
//
// Costs: the sort dominates energy at Theta(m^{3/2}); the jump rounds add
// O(m^{3/2} log m) worst-case energy and O(log m) depth; everything else
// is O(m) energy, O(log m) depth.
#pragma once

#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "tree/tree.hpp"

#include <vector>

namespace scm::tree {

/// Per-vertex output of the tour, resident at the vertex square.
struct VertexInfo {
  index_t parent{-1};  ///< dense parent id; -1 at the root
  index_t depth{0};
  index_t first{-1};  ///< tour rank of the arc entering the vertex
  index_t last{0};    ///< tour rank of the arc leaving it upward
};

/// One arc cell of the tour array (tour order, Z-order square).
struct TourArc {
  index_t from{0};
  index_t to{0};
  index_t twin_rank{0};
  bool down{false};
  index_t depth_to{0};  ///< depth of `to`, filled by the prefix scan
};

/// The tour: arc array in tour order, per-vertex info, and dense host
/// mirrors of the per-vertex fields (routing bookkeeping for the
/// downstream algorithms, in the spirit of graph/components.cpp).
struct EulerTour {
  index_t n{0};
  index_t m_arcs{0};
  index_t rank_rounds{0};  ///< Wyllie rounds taken by list ranking
  GridArray<TourArc> tour;
  GridArray<VertexInfo> verts;
  std::vector<index_t> parent;
  std::vector<index_t> depth;
  std::vector<index_t> first;
  std::vector<index_t> last;
};

/// Builds the tour of `t` rooted at dense vertex 0. The arc sort square
/// sits at `origin`; the vertex square to its right; the tour square
/// below it.
[[nodiscard]] EulerTour euler_tour(Machine& m, const DenseTree& t,
                                   Coord origin);

namespace detail {

/// One directed arc of the doubled edge list, before ranking.
struct SortArc {
  index_t from{0};
  index_t to{0};
  index_t seq{0};  ///< arc id: 2e for (u,v), 2e+1 for (v,u)
};

/// The arcs in (from, seq) order, so each vertex's arcs form one
/// contiguous segment, and the sorted position of each arc's twin.
struct SortedArcs {
  GridArray<SortArc> by;
  std::vector<index_t> twin_pos;
};

/// The one arc sort of the tree tier (euler_tour, tree_contract): the
/// 2(n-1) arcs of `t` (n >= 2) on the Z-order square at `origin`, one
/// mergesort2d by (from, seq), and the twin positions derived host-side
/// from the sorted order. Opens no phase of its own.
[[nodiscard]] SortedArcs sort_arcs(Machine& m, const DenseTree& t,
                                   Coord origin);

}  // namespace detail

}  // namespace scm::tree
