#include "graph/components.hpp"

#include "collectives/reduce.hpp"
#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/zorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace scm::graph {

namespace {

/// One directed arc of the doubled edge list: the tail collects the min
/// label over its heads.
struct Arc {
  index_t head{0};  // label source
  index_t tail{0};  // label destination
  index_t label{0};  // the head's current label (refreshed per round)
};

struct ByHead {
  bool operator()(const Arc& a, const Arc& b) const {
    return a.head < b.head;
  }
};

struct ByTail {
  bool operator()(const Arc& a, const Arc& b) const {
    return a.tail < b.tail;
  }
};

}  // namespace

ComponentsResult connected_components(Machine& m, const EdgeList& graph) {
  const index_t n = graph.n_vertices;
  if (n < 0) {
    throw std::invalid_argument("connected_components: negative n_vertices");
  }
  for (const auto& [u, v] : graph.edges) {
    if (u < 0 || u >= n || v < 0 || v >= n) {
      throw std::invalid_argument(
          "connected_components: edge endpoint outside [0, n_vertices)");
    }
  }
  Machine::PhaseScope scope(m, "connected_components");
  ComponentsResult out;
  out.label.resize(static_cast<size_t>(n));
  std::iota(out.label.begin(), out.label.end(), index_t{0});
  if (graph.edges.empty() || n == 0) {
    out.components = n;
    return out;
  }

  // Doubled arcs on the canonical square at the origin.
  std::vector<Arc> arcs;
  arcs.reserve(graph.edges.size() * 2);
  for (const auto& [u, v] : graph.edges) {
    arcs.push_back(Arc{u, v, 0});
    arcs.push_back(Arc{v, u, 0});
  }
  const auto m_arcs = static_cast<index_t>(arcs.size());
  GridArray<Arc> grid =
      GridArray<Arc>::from_values_square({0, 0}, arcs, Layout::kZOrder);

  // The label vector lives on a subgrid right of the arc grid.
  const index_t arc_side = grid.region().rows;
  const Rect label_rect =
      square_at({0, arc_side}, square_side_for(std::max<index_t>(n, 1)));
  GridArray<index_t> labels(label_rect, Layout::kRowMajor, n);
  for (index_t v = 0; v < n; ++v) labels[v].value = v;

  // Static routing, paid once: sort arcs by head; remember, per sorted
  // position, where the same arc lands in the by-tail order. The by-tail
  // order is computed by a second mergesort over (tail, position) pairs.
  GridArray<Arc> by_head = mergesort2d(m, grid, ByHead{});
  GridArray<Arc> by_tail = mergesort2d(m, by_head, ByTail{});
  // Host-side correspondence by_head position -> by_tail position (the
  // routing decision is fixed by the stable sorts; re-deriving it is
  // local bookkeeping).
  std::vector<index_t> head_to_tail_pos(static_cast<size_t>(m_arcs));
  {
    std::vector<index_t> order(static_cast<size_t>(m_arcs));
    std::iota(order.begin(), order.end(), index_t{0});
    std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
      return by_head[x].value.tail < by_head[y].value.tail;
    });
    for (index_t pos = 0; pos < m_arcs; ++pos) {
      head_to_tail_pos[static_cast<size_t>(order[static_cast<size_t>(pos)])] =
          pos;
    }
  }

  // Head-segment structure over the by-head order (one round of neighbour
  // hand-offs, O(1) depth; one comparison each).
  const std::vector<char> head_leader = segment_heads(
      m, by_head, [](const Arc& a) { return a.head; }, m_arcs);
  if (m_arcs > 1) m.op(m_arcs - 1);
  std::vector<char> tail_leader(static_cast<size_t>(m_arcs), 0);
  for (index_t i = 0; i < m_arcs; ++i) {
    tail_leader[static_cast<size_t>(i)] =
        (i == 0 || by_tail[i].value.tail != by_tail[i - 1].value.tail) ? 1
                                                                       : 0;
  }

  // Propagation rounds.
  bool changed = true;
  while (changed) {
    ++out.rounds;
    changed = false;

    // 1. Head leaders fetch the current label; segmented broadcast along
    //    the head segments (scan with First over the Z-order view).
    GridArray<Seg<index_t>> fan(by_head.region(), Layout::kZOrder, m_arcs);
    for (index_t i = 0; i < m_arcs; ++i) {
      Clock clock = by_head[i].clock;
      index_t value = 0;
      if (head_leader[static_cast<size_t>(i)]) {
        const index_t h = by_head[i].value.head;
        const Coord here = by_head.coord(i);
        const Coord there = labels.coord(h);
        const Clock req = m.send(here, there, clock);
        clock = m.send(there, here, Clock::join(req, labels[h].clock));
        value = labels[h].value;
      }
      fan[i] = Cell<Seg<index_t>>{
          Seg<index_t>{value, head_leader[static_cast<size_t>(i)] != 0},
          clock};
      m.op();
    }
    GridArray<Seg<index_t>> fanned = segmented_scan(m, fan, First{});

    // 2. Route each arc's fetched label to its by-tail position (the
    //    static permutation computed above).
    GridArray<Seg<index_t>> to_min(by_tail.region(), Layout::kZOrder,
                                   m_arcs);
    for (index_t i = 0; i < m_arcs; ++i) {
      const index_t dst = head_to_tail_pos[static_cast<size_t>(i)];
      to_min[dst] = Cell<Seg<index_t>>{
          Seg<index_t>{fanned[i].value.value,
                       tail_leader[static_cast<size_t>(dst)] != 0},
          m.send(fanned.coord(i), to_min.coord(dst), fanned[i].clock)};
    }

    // 3. Segmented MIN per tail segment; the segment's last arc hands the
    //    minimum to the tail's label cell.
    GridArray<Seg<index_t>> mins = segmented_scan(m, to_min, Min{});
    for (index_t i = 0; i < m_arcs; ++i) {
      const bool last =
          i + 1 == m_arcs || tail_leader[static_cast<size_t>(i + 1)] != 0;
      if (!last) continue;
      const index_t v = by_tail[i].value.tail;
      const index_t candidate = mins[i].value.value;
      const Clock arrived =
          m.send(mins.coord(i), labels.coord(v), mins[i].clock);
      labels[v].clock = Clock::join(labels[v].clock, arrived);
      m.op();
      if (candidate < labels[v].value) {
        labels[v].value = candidate;
        changed = true;
      }
    }
  }

  // Collect results.
  for (index_t v = 0; v < n; ++v) {
    out.label[static_cast<size_t>(v)] = labels[v].value;
  }
  index_t components = 0;
  for (index_t v = 0; v < n; ++v) {
    if (out.label[static_cast<size_t>(v)] == v) ++components;
  }
  out.components = components;
  return out;
}

std::vector<index_t> reference_components(const EdgeList& graph) {
  std::vector<index_t> parent(static_cast<size_t>(graph.n_vertices));
  std::iota(parent.begin(), parent.end(), index_t{0});
  auto find = [&](index_t v) {
    while (parent[static_cast<size_t>(v)] != v) {
      parent[static_cast<size_t>(v)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(v)])];
      v = parent[static_cast<size_t>(v)];
    }
    return v;
  };
  for (const auto& [u, v] : graph.edges) {
    const index_t ru = find(u);
    const index_t rv = find(v);
    if (ru != rv) parent[static_cast<size_t>(std::max(ru, rv))] =
        std::min(ru, rv);
  }
  std::vector<index_t> label(static_cast<size_t>(graph.n_vertices));
  for (index_t v = 0; v < graph.n_vertices; ++v) {
    label[static_cast<size_t>(v)] = find(v);
  }
  return label;
}

}  // namespace scm::graph
