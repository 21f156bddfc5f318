#include "tree/euler.hpp"

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/zorder.hpp"

#include <cassert>
#include <cstdint>
#include <utility>

namespace scm::tree {

namespace {

struct ByFromSeq {
  bool operator()(const detail::SortArc& a, const detail::SortArc& b) const {
    if (a.from != b.from) return a.from < b.from;
    return a.seq < b.seq;
  }
};

constexpr index_t kNil = -1;

}  // namespace

detail::SortedArcs detail::sort_arcs(Machine& m, const DenseTree& t,
                                     Coord origin) {
  const index_t m_arcs = 2 * (t.n - 1);
  std::vector<SortArc> arcs;
  arcs.reserve(static_cast<size_t>(m_arcs));
  for (size_t e = 0; e < t.edges.size(); ++e) {
    const auto& [u, v] = t.edges[e];
    arcs.push_back(SortArc{u, v, static_cast<index_t>(2 * e)});
    arcs.push_back(SortArc{v, u, static_cast<index_t>(2 * e + 1)});
  }
  GridArray<SortArc> grid =
      GridArray<SortArc>::from_values_square(origin, arcs, Layout::kZOrder);
  SortedArcs out{mergesort2d(m, grid, ByFromSeq{}),
                 std::vector<index_t>(static_cast<size_t>(m_arcs))};

  // Host-side routing bookkeeping: the sorted order is fixed by the sort;
  // re-deriving positions from it is local (graph/components.cpp idiom).
  std::vector<index_t> pos_of_seq(static_cast<size_t>(m_arcs));
  for (index_t i = 0; i < m_arcs; ++i) {
    pos_of_seq[static_cast<size_t>(out.by[i].value.seq)] = i;
  }
  for (index_t i = 0; i < m_arcs; ++i) {
    out.twin_pos[static_cast<size_t>(i)] =
        pos_of_seq[static_cast<size_t>(out.by[i].value.seq ^ 1)];
  }
  return out;
}

EulerTour euler_tour(Machine& m, const DenseTree& t, Coord origin) {
  Machine::PhaseScope scope(m, "euler_tour");
  const index_t n = t.n;
  const index_t m_arcs = 2 * (n - 1);
  const index_t arc_side = square_side_for(std::max<index_t>(m_arcs, 1));
  const index_t vert_side = square_side_for(n);
  const Coord vert_origin{origin.row, origin.col + arc_side};
  const Coord tour_origin{origin.row + arc_side, origin.col};

  GridArray<VertexInfo> verts(square_at(vert_origin, vert_side),
                              Layout::kRowMajor, n);
  verts[0].value = VertexInfo{-1, 0, -1, m_arcs};  // root facts are constants
  EulerTour out{n,
                m_arcs,
                0,
                GridArray<TourArc>(square_at(tour_origin, arc_side),
                                   Layout::kZOrder, m_arcs),
                std::move(verts),
                std::vector<index_t>(static_cast<size_t>(n), -1),
                std::vector<index_t>(static_cast<size_t>(n), 0),
                std::vector<index_t>(static_cast<size_t>(n), -1),
                std::vector<index_t>(static_cast<size_t>(n), 0)};
  out.last[0] = m_arcs;
  if (n == 1) return out;

  // ---- 1. sort: arcs by (head, arc id) on the square at `origin`.
  auto [by, twin_pos] = detail::sort_arcs(m, t, origin);

  // ---- 2. segments: leader flags by simultaneous forward hand-offs,
  // next-in-segment flags by the backward hand-offs, segment start
  // positions by a segmented First broadcast of the leader's position.
  std::vector<char> next_same(static_cast<size_t>(m_arcs), 0);
  std::vector<index_t> seg_lo(static_cast<size_t>(m_arcs), 0);
  {
    Machine::PhaseScope seg(m, "euler_tour/segments");
    // Forward: cell i learns whether it starts a segment.
    const std::vector<char> leader = segment_heads(
        m, by, [](const detail::SortArc& a) { return a.from; }, m_arcs);
    m.op_bulk(m_arcs);
    // Backward: cell i learns whether i + 1 continues its segment.
    {
      std::vector<MessageEvent> bwd(static_cast<size_t>(m_arcs - 1));
      for (index_t i = 0; i + 1 < m_arcs; ++i) {
        bwd[static_cast<size_t>(i)] = MessageEvent{
            by.coord(i + 1), by.coord(i), 0, by[i + 1].clock, Clock{}};
      }
      m.send_bulk(bwd);  // bulk-ok: distinct destinations (a shift by one)
      for (index_t i = 0; i + 1 < m_arcs; ++i) {
        by[i].clock =
            Clock::join(by[i].clock, bwd[static_cast<size_t>(i)].arrival);
        next_same[static_cast<size_t>(i)] =
            leader[static_cast<size_t>(i + 1)] == 0 ? 1 : 0;
      }
      m.op_bulk(m_arcs);
    }
    // Segmented broadcast of the leader position (a position is local
    // identity — free — at the leader itself).
    GridArray<Seg<index_t>> fan(by.region(), Layout::kZOrder, m_arcs);
    for (index_t i = 0; i < m_arcs; ++i) {
      fan[i] = Cell<Seg<index_t>>{
          Seg<index_t>{i, leader[static_cast<size_t>(i)] != 0}, by[i].clock};
    }
    GridArray<Seg<index_t>> fanned = segmented_scan(m, fan, First{});
    for (index_t i = 0; i < m_arcs; ++i) {
      seg_lo[static_cast<size_t>(i)] = fanned[i].value.value;
      by[i].clock = Clock::join(by[i].clock, fanned[i].clock);
    }
  }

  // ---- 3. succ: each arc knows the circuit successor of its twin (the
  // arc after itself in its own segment, cyclic) and ships it across the
  // twin bijection. The start arc is sorted position 0 (the root is dense
  // id 0, so its segment leads the order); the arc whose successor would
  // be the start closes the circuit and gets nil.
  std::vector<index_t> succ(static_cast<size_t>(m_arcs), kNil);
  std::vector<index_t> dist(static_cast<size_t>(m_arcs), 0);
  {
    Machine::PhaseScope sp(m, "euler_tour/succ");
    std::vector<MessageEvent> batch(static_cast<size_t>(m_arcs));
    std::vector<index_t> carried(static_cast<size_t>(m_arcs));
    for (index_t i = 0; i < m_arcs; ++i) {
      const index_t succ_of_twin = next_same[static_cast<size_t>(i)] != 0
                                       ? i + 1
                                       : seg_lo[static_cast<size_t>(i)];
      const index_t dst = twin_pos[static_cast<size_t>(i)];
      batch[static_cast<size_t>(i)] =
          MessageEvent{by.coord(i), by.coord(dst), 0, by[i].clock, Clock{}};
      carried[static_cast<size_t>(i)] = succ_of_twin;
    }
    m.send_bulk(batch);  // bulk-ok: the twin map is a bijection
    for (index_t i = 0; i < m_arcs; ++i) {
      const index_t dst = twin_pos[static_cast<size_t>(i)];
      by[dst].clock = Clock::join(by[dst].clock,
                                  batch[static_cast<size_t>(i)].arrival);
      const index_t s = carried[static_cast<size_t>(i)];
      succ[static_cast<size_t>(dst)] = s == 0 ? kNil : s;
      dist[static_cast<size_t>(dst)] = s == 0 ? 0 : 1;
    }
    m.op_bulk(m_arcs);
  }

  // ---- 4. jump: Wyllie pointer jumping. Invariant: dist[i] counts the
  // arcs in (i, succ[i]]; at convergence (succ nil) it is the distance to
  // the circuit's final arc. Each round reads a snapshot, then one
  // request batch (i -> succ[i], injective) and one reply batch carry the
  // successor's (succ, dist) back.
  index_t active = 0;
  for (index_t i = 0; i < m_arcs; ++i) {
    if (succ[static_cast<size_t>(i)] != kNil) ++active;
  }
  while (active > 0) {
    Machine::PhaseScope round(m, "euler_tour/jump");
    ++out.rank_rounds;
    const std::vector<index_t> succ_snap = succ;
    const std::vector<index_t> dist_snap = dist;
    std::vector<index_t> movers;
    movers.reserve(static_cast<size_t>(active));
    for (index_t i = 0; i < m_arcs; ++i) {
      if (succ_snap[static_cast<size_t>(i)] != kNil) movers.push_back(i);
    }
    std::vector<MessageEvent> req(movers.size());
    for (size_t k = 0; k < movers.size(); ++k) {
      const index_t i = movers[k];
      const index_t s = succ_snap[static_cast<size_t>(i)];
      req[k] = MessageEvent{by.coord(i), by.coord(s), 0, by[i].clock, Clock{}};
    }
    m.send_bulk(req);  // bulk-ok: succ is injective on the circuit
    std::vector<MessageEvent> rep(movers.size());
    for (size_t k = 0; k < movers.size(); ++k) {
      const index_t i = movers[k];
      const index_t s = succ_snap[static_cast<size_t>(i)];
      rep[k] = MessageEvent{by.coord(s), by.coord(i), 0,
                            Clock::join(req[k].arrival, by[s].clock), Clock{}};
    }
    m.send_bulk(rep);  // bulk-ok: replies return to distinct requesters
    active = 0;
    for (size_t k = 0; k < movers.size(); ++k) {
      const index_t i = movers[k];
      const index_t s = succ_snap[static_cast<size_t>(i)];
      by[i].clock = Clock::join(by[i].clock, rep[k].arrival);
      dist[static_cast<size_t>(i)] += dist_snap[static_cast<size_t>(s)];
      succ[static_cast<size_t>(i)] = succ_snap[static_cast<size_t>(s)];
      if (succ[static_cast<size_t>(i)] != kNil) ++active;
    }
    m.op_bulk(static_cast<index_t>(movers.size()));
  }
  std::vector<index_t> rank(static_cast<size_t>(m_arcs));
  for (index_t i = 0; i < m_arcs; ++i) {
    rank[static_cast<size_t>(i)] =
        (m_arcs - 1) - dist[static_cast<size_t>(i)];
  }

  // ---- 5. orient: twin-rank exchange; down iff rank < twin's rank.
  std::vector<index_t> twin_rank(static_cast<size_t>(m_arcs));
  {
    Machine::PhaseScope op(m, "euler_tour/orient");
    std::vector<MessageEvent> batch(static_cast<size_t>(m_arcs));
    for (index_t i = 0; i < m_arcs; ++i) {
      batch[static_cast<size_t>(i)] =
          MessageEvent{by.coord(i), by.coord(twin_pos[static_cast<size_t>(i)]),
                       0, by[i].clock, Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: the twin map is a bijection
    for (index_t i = 0; i < m_arcs; ++i) {
      const index_t dst = twin_pos[static_cast<size_t>(i)];
      by[dst].clock = Clock::join(by[dst].clock,
                                  batch[static_cast<size_t>(i)].arrival);
      twin_rank[static_cast<size_t>(dst)] = rank[static_cast<size_t>(i)];
    }
    m.op_bulk(m_arcs);
  }

  // ---- 6. route: by rank into the tour square.
  {
    Machine::PhaseScope rp(m, "euler_tour/route");
    GridArray<TourArc> staged(by.region(), Layout::kZOrder, m_arcs);
    for (index_t i = 0; i < m_arcs; ++i) {
      staged[i] = Cell<TourArc>{
          TourArc{by[i].value.from, by[i].value.to,
                  twin_rank[static_cast<size_t>(i)],
                  rank[static_cast<size_t>(i)] <
                      twin_rank[static_cast<size_t>(i)],
                  0},
          by[i].clock};
    }
    m.op_bulk(m_arcs);
    out.tour = route_permutation(m, staged, out.tour.region(),
                                 Layout::kZOrder, rank);
  }

  // ---- 7. depth: inclusive +-1 prefix over the tour; entry r of the
  // result is the depth of arc r's head (down arcs descend one level, up
  // arcs return to the parent's level).
  {
    Machine::PhaseScope dp(m, "euler_tour/depth");
    GridArray<std::int64_t> delta(out.tour.region(), Layout::kZOrder, m_arcs);
    for (index_t r = 0; r < m_arcs; ++r) {
      delta[r] = Cell<std::int64_t>{out.tour[r].value.down ? 1 : -1,
                                    out.tour[r].clock};
    }
    m.op_bulk(m_arcs);
    GridArray<std::int64_t> prefix = scan(m, delta, Plus{});
    for (index_t r = 0; r < m_arcs; ++r) {
      out.tour[r].value.depth_to =
          static_cast<index_t>(prefix[r].value);
      out.tour[r].clock = Clock::join(out.tour[r].clock, prefix[r].clock);
    }
    m.op_bulk(m_arcs);
  }

  // ---- 8. deliver: each down arc ships {parent, depth, first, last} to
  // its head vertex's cell (one down arc per non-root vertex: distinct
  // destinations).
  {
    Machine::PhaseScope dl(m, "euler_tour/deliver");
    std::vector<index_t> down_ranks;
    down_ranks.reserve(static_cast<size_t>(n - 1));
    for (index_t r = 0; r < m_arcs; ++r) {
      if (out.tour[r].value.down) down_ranks.push_back(r);
    }
    assert(static_cast<index_t>(down_ranks.size()) == n - 1);
    std::vector<MessageEvent> batch(down_ranks.size());
    for (size_t k = 0; k < down_ranks.size(); ++k) {
      const index_t r = down_ranks[k];
      batch[k] = MessageEvent{out.tour.coord(r),
                              out.verts.coord(out.tour[r].value.to), 0,
                              out.tour[r].clock, Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: one down arc per vertex
    for (size_t k = 0; k < down_ranks.size(); ++k) {
      const index_t r = down_ranks[k];
      const TourArc& a = out.tour[r].value;
      out.verts[a.to] =
          Cell<VertexInfo>{VertexInfo{a.from, a.depth_to, r, a.twin_rank},
                           batch[k].arrival};
    }
    m.op_bulk(n - 1);
  }

  // Dense host mirrors for downstream routing decisions.
  for (index_t v = 0; v < n; ++v) {
    const VertexInfo& info = out.verts[v].value;
    out.parent[static_cast<size_t>(v)] = info.parent;
    out.depth[static_cast<size_t>(v)] = info.depth;
    out.first[static_cast<size_t>(v)] = info.first;
    out.last[static_cast<size_t>(v)] = info.last;
  }
  return out;
}

}  // namespace scm::tree
