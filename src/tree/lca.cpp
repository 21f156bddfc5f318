#include "tree/lca.hpp"

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/zorder.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <utility>

namespace scm::tree {

namespace {

/// One occurrence of a vertex on the tour, ordered by (depth, vertex); the
/// range minimum of a query's occurrence interval is its LCA.
struct Ent {
  index_t depth{std::numeric_limits<index_t>::max()};
  index_t vertex{std::numeric_limits<index_t>::max()};
};

[[nodiscard]] Ent min_ent(const Ent& a, const Ent& b) {
  if (a.depth != b.depth) return a.depth < b.depth ? a : b;
  return a.vertex <= b.vertex ? a : b;
}

struct Query {
  index_t a{0};
  index_t b{0};
  index_t seq{0};
  index_t i1{0};  ///< occurrence index of `a`'s first appearance
  index_t i2{0};  ///< occurrence index of `b`'s first appearance
};

struct ByA {
  bool operator()(const Query& x, const Query& y) const {
    if (x.a != y.a) return x.a < y.a;
    return x.seq < y.seq;
  }
};

struct ByB {
  bool operator()(const Query& x, const Query& y) const {
    if (x.b != y.b) return x.b < y.b;
    return x.seq < y.seq;
  }
};

/// Canonical 4-ary cover of [lo, hi] (inclusive): maximal aligned blocks,
/// left to right — the nodes the walk phase fetches. O(log) blocks.
[[nodiscard]] std::vector<std::pair<index_t, index_t>> rmq_cover(
    index_t lo, index_t hi) {
  std::vector<std::pair<index_t, index_t>> out;
  index_t pos = lo;
  while (pos <= hi) {
    index_t h = 0;
    index_t span = 1;
    while (pos % (span * 4) == 0 && pos + span * 4 - 1 <= hi) {
      span *= 4;
      ++h;
    }
    out.emplace_back(pos, h);
    pos += span;
  }
  return out;
}

constexpr index_t kGroup = 16;  ///< queries walked per conformance epoch

}  // namespace

LcaResult lca(Machine& m, const DenseTree& t, const EulerTour& tour,
              const std::vector<std::pair<index_t, index_t>>& queries,
              Coord origin) {
  (void)origin;  // placement is derived from the tour's own squares
  Machine::PhaseScope scope(m, "tree_lca");
  const index_t n = t.n;
  const index_t q = static_cast<index_t>(queries.size());
  LcaResult out;
  out.answers.assign(static_cast<size_t>(q), 0);
  if (q == 0) return out;
  for (const auto& [a, b] : queries) {
    assert(a >= 0 && a < n && b >= 0 && b < n);
    (void)a;
    (void)b;
  }
  if (n == 1) {
    m.op_bulk(q);  // every answer is the root, decided at the query cells
    return out;
  }

  const index_t m_arcs = tour.m_arcs;
  const index_t N = m_arcs + 1;  // occurrence sequence length
  const Rect tr = tour.tour.region();

  // ---- occ: materialize the occurrence array right of the tour square.
  const Coord occ_origin{tr.row0, tr.col0 + tr.rows};
  GridArray<Ent> occ =
      GridArray<Ent>::on_square(occ_origin, N, Layout::kZOrder);
  {
    Machine::PhaseScope op(m, "tree_lca/occ");
    occ[0] = Cell<Ent>{Ent{0, 0}, Clock{}};  // the root opens the tour
    std::vector<MessageEvent> batch(static_cast<size_t>(m_arcs));
    for (index_t r = 0; r < m_arcs; ++r) {
      batch[static_cast<size_t>(r)] =
          MessageEvent{tour.tour.coord(r), occ.coord(r + 1), 0,
                       tour.tour[r].clock, Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: occurrence slots are distinct
    for (index_t r = 0; r < m_arcs; ++r) {
      const TourArc& arc = tour.tour[r].value;
      occ[r + 1] = Cell<Ent>{Ent{arc.depth_to, arc.to},
                             batch[static_cast<size_t>(r)].arrival};
    }
    m.op_bulk(m_arcs);
  }

  // ---- rmq: 4-ary min upsweep. Node (lo, h) covers [lo, lo + 4^h) and
  // lives at Z-order position lo + h of the occurrence square (the scan
  // tree's placement: at most two values per cell). Children arrive in
  // four distinct-destination batches per level.
  struct NodeRec {
    Ent value;
    Clock clock;
  };
  std::map<std::pair<index_t, index_t>, NodeRec> nodes;
  const index_t capacity = occ.region().size();
  auto node_coord = [&](index_t lo, index_t h) {
    return zorder_coord(occ.region(), lo + h);
  };
  {
    Machine::PhaseScope rp(m, "tree_lca/rmq");
    index_t span = 4;
    for (index_t h = 1; span <= capacity; span *= 4, ++h) {
      std::vector<std::pair<index_t, index_t>> level;  // (lo, child count)
      for (index_t lo = 0; lo < N; lo += span) level.emplace_back(lo, 0);
      for (int j = 0; j < 4; ++j) {
        std::vector<MessageEvent> batch;
        std::vector<index_t> batch_lo;
        for (auto& [lo, cnt] : level) {
          const index_t child_lo = lo + j * (span / 4);
          if (child_lo >= N) continue;
          const Clock c = (h == 1)
                              ? occ[child_lo].clock
                              : nodes.at({child_lo, h - 1}).clock;
          batch.push_back(MessageEvent{node_coord(child_lo, h - 1),
                                       node_coord(lo, h), 0, c, Clock{}});
          batch_lo.push_back(lo);
          ++cnt;
        }
        if (batch.empty()) continue;
        m.send_bulk(batch);  // bulk-ok: one child index per parent
        for (size_t k = 0; k < batch.size(); ++k) {
          const index_t lo = batch_lo[k];
          const index_t child_lo = lo + j * (span / 4);
          const Ent child = (h == 1)
                                ? occ[child_lo].value
                                : nodes.at({child_lo, h - 1}).value;
          auto [it, fresh] = nodes.try_emplace(
              {lo, h}, NodeRec{child, batch[k].arrival});
          if (!fresh) {
            it->second.value = min_ent(it->second.value, child);
            it->second.clock =
                Clock::join(it->second.clock, batch[k].arrival);
          }
        }
      }
      m.op_bulk(static_cast<index_t>(level.size()));
    }
  }

  // ---- endpoints: sort queries by each endpoint; segment leaders fetch
  // first[] from the vertex square, a segmented First-broadcast fans it
  // along the segment.
  const index_t q_side = square_side_for(q);
  const Coord q_origin{tr.row0, occ_origin.col + occ.region().cols};
  std::vector<Query> qs(static_cast<size_t>(q));
  for (index_t k = 0; k < q; ++k) {
    qs[static_cast<size_t>(k)] =
        Query{queries[static_cast<size_t>(k)].first,
              queries[static_cast<size_t>(k)].second, k, 0, 0};
  }
  GridArray<Query> sorted =
      GridArray<Query>::from_values_square(q_origin, qs, Layout::kZOrder);

  // Fetches first[key(cell)] + 1 for every cell of `arr` (sorted by key)
  // and stores it via `slot`. One request/reply pair per distinct key.
  auto fetch_occurrence = [&](GridArray<Query>& arr, auto key, auto slot) {
    Machine::PhaseScope ep(m, "tree_lca/endpoints");
    const std::vector<char> leader = segment_heads(m, arr, key, q);
    // Request/reply across the vertex square (distinct keys => distinct
    // vertex cells in each batch).
    std::vector<MessageEvent> req;
    std::vector<index_t> req_i;
    for (index_t i = 0; i < q; ++i) {
      if (!leader[static_cast<size_t>(i)]) continue;
      req.push_back(MessageEvent{arr.coord(i),
                                 tour.verts.coord(key(arr[i].value)), 0,
                                 arr[i].clock, Clock{}});
      req_i.push_back(i);
    }
    m.send_bulk(req);  // bulk-ok: one distinct vertex per leader
    std::vector<MessageEvent> rep(req.size());
    for (size_t k = 0; k < req.size(); ++k) {
      const index_t v = key(arr[req_i[k]].value);
      rep[k] = MessageEvent{
          tour.verts.coord(v), req[k].from, 0,
          Clock::join(req[k].arrival, tour.verts[v].clock), Clock{}};
    }
    m.send_bulk(rep);  // bulk-ok: back to distinct leader cells
    // Broadcast within segments: occurrence index = first[v] + 1 (the
    // root's first is -1, so the formula is uniform).
    GridArray<Seg<index_t>> fan(arr.region(), Layout::kZOrder, q);
    for (index_t i = 0; i < q; ++i) {
      fan[i] = Cell<Seg<index_t>>{
          Seg<index_t>{0, leader[static_cast<size_t>(i)] != 0},
          arr[i].clock};
    }
    for (size_t k = 0; k < req.size(); ++k) {
      const index_t i = req_i[k];
      const index_t v = key(arr[i].value);
      fan[i].value.value = tour.first[static_cast<size_t>(v)] + 1;
      fan[i].clock = Clock::join(fan[i].clock, rep[k].arrival);
    }
    GridArray<Seg<index_t>> bc = segmented_scan(m, fan, First{});
    for (index_t i = 0; i < q; ++i) {
      slot(arr[i].value) = bc[i].value.value;
      arr[i].clock = Clock::join(arr[i].clock, bc[i].clock);
    }
    m.op_bulk(q);
  };

  sorted = mergesort2d(m, sorted, ByA{});
  fetch_occurrence(
      sorted, [](const Query& x) { return x.a; },
      [](Query& x) -> index_t& { return x.i1; });
  sorted = mergesort2d(m, sorted, ByB{});
  fetch_occurrence(
      sorted, [](const Query& x) { return x.b; },
      [](Query& x) -> index_t& { return x.i2; });

  // Back to query order, on a walk square below the sort square.
  std::vector<index_t> perm(static_cast<size_t>(q));
  for (index_t i = 0; i < q; ++i) {
    perm[static_cast<size_t>(i)] = sorted[i].value.seq;
  }
  const Coord walk_origin{q_origin.row + q_side, q_origin.col};
  GridArray<Query> walk = route_permutation(
      m, sorted, square_at(walk_origin, q_side), Layout::kZOrder, perm);

  // ---- walk: each query min-combines its canonical cover, in groups of
  // kGroup queries with one phase per step, so any single tree node cell
  // serves at most kGroup request/reply pairs per conformance epoch.
  std::vector<std::vector<std::pair<index_t, index_t>>> covers(
      static_cast<size_t>(q));
  for (index_t k = 0; k < q; ++k) {
    const Query& qu = walk[k].value;
    const index_t lo = std::min(qu.i1, qu.i2);
    const index_t hi = std::max(qu.i1, qu.i2);
    covers[static_cast<size_t>(k)] = rmq_cover(lo, hi);
    out.max_len = std::max(
        out.max_len,
        static_cast<index_t>(covers[static_cast<size_t>(k)].size()));
  }
  for (index_t g = 0; g < q; g += kGroup) {
    const index_t g_end = std::min(q, g + kGroup);
    ++out.groups;
    size_t max_steps = 0;
    for (index_t k = g; k < g_end; ++k) {
      max_steps = std::max(max_steps, covers[static_cast<size_t>(k)].size());
    }
    std::vector<Ent> best(static_cast<size_t>(g_end - g));
    std::vector<Clock> qc(static_cast<size_t>(g_end - g));
    for (index_t k = g; k < g_end; ++k) {
      qc[static_cast<size_t>(k - g)] = walk[k].clock;
    }
    for (size_t s = 0; s < max_steps; ++s) {
      Machine::PhaseScope wp(m, "tree_lca/walk");
      index_t active = 0;
      for (index_t k = g; k < g_end; ++k) {
        const auto& cov = covers[static_cast<size_t>(k)];
        if (s >= cov.size()) continue;
        const auto [lo, h] = cov[s];
        const Coord c = node_coord(lo, h);
        const Ent val =
            h == 0 ? occ[lo].value : nodes.at({lo, h}).value;
        const Clock nc =
            h == 0 ? occ[lo].clock : nodes.at({lo, h}).clock;
        Clock& mine = qc[static_cast<size_t>(k - g)];
        // Scalar sends: several queries of the group may hit the same
        // node, which a bulk batch's independence rule would reject.
        // bulk-ok: fan-in on shared RMQ nodes is inherent to the walk
        const Clock req = m.send(walk.coord(k), c, mine);
        const Clock rep =
            // bulk-ok: reply pairs with the request, same shared node
            m.send(c, walk.coord(k), Clock::join(req, nc));
        mine = Clock::join(mine, rep);
        best[static_cast<size_t>(k - g)] =
            min_ent(best[static_cast<size_t>(k - g)], val);
        ++out.walk_nodes;
        ++active;
      }
      m.op_bulk(active);
    }
    for (index_t k = g; k < g_end; ++k) {
      out.answers[static_cast<size_t>(k)] =
          best[static_cast<size_t>(k - g)].vertex;
      m.observe(qc[static_cast<size_t>(k - g)]);
    }
  }
  return out;
}

}  // namespace scm::tree
