// List-ranking-style tree contraction (rake-and-compress) on the SCM.
//
// Contracts an unrooted tree to a single survivor vertex while folding
// per-vertex values under a *commutative* associative operator — the
// total-reduction primitive for operators without an inverse (Min/Max),
// complementing the group-operator scans of tree/reductions.hpp.
//
// Round structure (all decisions from start-of-round state, all data
// movement charged):
//   bcast    — every live vertex ships its degree to its arc segment's
//              head; a segmented First-broadcast fans it to the arcs.
//   exchange — live arcs swap degrees across the twin bijection, so each
//              arc knows its neighbour endpoint's degree.
//   digest   — a segmented scan aggregates, per vertex: the minimum
//              neighbour degree, the maximum priority among degree-2
//              neighbours, and the first live neighbour; the segment's
//              last arc hands the digest to the vertex cell.
//   decide   — locally: a leaf *rakes* into its neighbour unless that
//              neighbour is a lower-priority leaf; a degree-2 vertex
//              *splices* (compress) iff no neighbour is a leaf and its
//              priority beats every degree-2 neighbour — so adjacent
//              splices never race.
//   fold     — an eliminated vertex sends its value (and, for splices,
//              relink data) to the twin arcs of its live arcs; raked
//              twin arcs die, spliced ones repoint to each other.
//   collect  — a segmented scan folds all values arriving at one
//              vertex's segment into a single message to the vertex.
//
// Priorities are a salted hash of the dense id (a pure function of
// identity, like a coordinate — free to evaluate anywhere). Every round
// eliminates at least one leaf, and compress makes the expected round
// count O(log n) on paths; energy is dominated by the one arc sort plus
// O(m) scan work per round.
#pragma once

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/zorder.hpp"
#include "tree/euler.hpp"
#include "tree/tree.hpp"

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace scm::tree {

namespace detail {

/// Per-segment neighbourhood aggregate of the digest scan.
struct Digest {
  bool any{false};
  index_t min_deg{std::numeric_limits<index_t>::max()};
  std::uint64_t max_prio2{0};  ///< max priority among degree-2 neighbours
  index_t nbr{-1};             ///< first live neighbour (leftmost arc)
  index_t nbr_deg{0};

  friend bool operator==(const Digest&, const Digest&) = default;
};

struct DigestOp {
  Digest operator()(const Digest& a, const Digest& b) const {
    if (!a.any) return b;
    if (!b.any) return a;
    Digest o = a;  // keeps the leftmost nbr / nbr_deg
    o.min_deg = a.min_deg < b.min_deg ? a.min_deg : b.min_deg;
    o.max_prio2 = a.max_prio2 > b.max_prio2 ? a.max_prio2 : b.max_prio2;
    return o;
  }
};

/// Accumulated folds arriving at one vertex's arc segment.
template <class T>
struct FoldAcc {
  bool any{false};
  T value{};
  index_t raked{0};  ///< how many incident edges disappeared (rakes only)

  friend bool operator==(const FoldAcc&, const FoldAcc&) = default;
};

template <class T, class Op>
struct FoldOp {
  Op op{};
  FoldAcc<T> operator()(const FoldAcc<T>& a, const FoldAcc<T>& b) const {
    if (!a.any) return b;
    if (!b.any) return a;
    return FoldAcc<T>{true, op(a.value, b.value), a.raked + b.raked};
  }
};

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Distinct nonzero per-vertex priority: salted hash high, dense id low.
[[nodiscard]] inline std::uint64_t contract_priority(std::uint64_t salt,
                                                     index_t v) {
  return ((mix64(salt ^ static_cast<std::uint64_t>(v + 1)) | 1ULL) << 20) |
         static_cast<std::uint64_t>(v);
}

}  // namespace detail

}  // namespace scm::tree

namespace scm {

template <>
struct OpTraits<tree::detail::DigestOp> {
  static constexpr bool associative = true;  // componentwise min/max/first
  static constexpr bool commutative = false;  // keeps the left neighbour
};

template <class T, class Op>
struct OpTraits<tree::detail::FoldOp<T, Op>> {
  static constexpr bool associative = OpTraits<Op>::associative;
  static constexpr bool commutative = OpTraits<Op>::commutative;
};

}  // namespace scm

namespace scm::tree {

template <class T>
struct ContractResult {
  index_t survivor{0};
  T value{};                        ///< op-fold of every vertex value
  index_t rounds{0};
  index_t arc_work{0};              ///< sum over rounds of live arcs
  std::vector<index_t> elim_round;  ///< dense; 0 for the survivor
};

/// Contracts `t`, folding dense-indexed `values` under the commutative
/// associative `op`. `salt` seeds the rake/compress priorities; `origin`
/// anchors the arc sort square (vertex square to its right).
template <class T, class Op>
[[nodiscard]] ContractResult<T> tree_contract(Machine& m, const DenseTree& t,
                                              const std::vector<T>& values,
                                              Op op, std::uint64_t salt,
                                              Coord origin) {
  static_assert(is_associative_v<Op> && is_commutative_v<Op>,
                "tree_contract folds concurrent rakes in arbitrary order; "
                "the operator must be commutative (use rootfix/leaffix for "
                "group operators)");
  Machine::PhaseScope scope(m, "tree_contract");
  const index_t n = t.n;
  const index_t m_arcs = 2 * (n - 1);
  ContractResult<T> out{0, values[0], 0, 0,
                        std::vector<index_t>(static_cast<size_t>(n), 0)};
  if (n == 1) return out;

  // ---- setup: one arc sort fixes the segment structure for all rounds.
  auto [by, twin_pos] = detail::sort_arcs(m, t, origin);

  const index_t arc_side = by.region().rows;
  const Coord vert_origin{origin.row, origin.col + arc_side};
  GridArray<T> vals = GridArray<T>::from_values(
      square_at(vert_origin, square_side_for(n)), Layout::kRowMajor, values);

  // Host routing bookkeeping over the sorted order (components.cpp idiom).
  std::vector<index_t> seg_lo(static_cast<size_t>(n), -1);
  std::vector<index_t> seg_hi(static_cast<size_t>(n), -1);
  for (index_t i = 0; i < m_arcs; ++i) {
    const index_t v = by[i].value.from;
    if (seg_lo[static_cast<size_t>(v)] < 0) seg_lo[static_cast<size_t>(v)] = i;
    seg_hi[static_cast<size_t>(v)] = i;
  }

  // Leader flags via simultaneous forward hand-offs (charged once).
  std::vector<char> leader;
  {
    Machine::PhaseScope seg(m, "tree_contract/setup");
    leader = segment_heads(
        m, by, [](const detail::SortArc& a) { return a.from; }, m_arcs);
    m.op_bulk(m_arcs);
  }

  // ---- degrees: segment sizes via a segmented count, handed to vertices.
  std::vector<index_t> deg(static_cast<size_t>(n), 0);
  std::vector<Clock> v_clock(static_cast<size_t>(n));
  {
    Machine::PhaseScope dp(m, "tree_contract/degrees");
    GridArray<Seg<index_t>> ones(by.region(), Layout::kZOrder, m_arcs);
    for (index_t i = 0; i < m_arcs; ++i) {
      ones[i] = Cell<Seg<index_t>>{
          Seg<index_t>{1, leader[static_cast<size_t>(i)] != 0}, by[i].clock};
    }
    GridArray<Seg<index_t>> counts = segmented_scan(m, ones, Plus{});
    std::vector<MessageEvent> batch(static_cast<size_t>(n));
    for (index_t v = 0; v < n; ++v) {
      const index_t h = seg_hi[static_cast<size_t>(v)];
      batch[static_cast<size_t>(v)] = MessageEvent{
          counts.coord(h), vals.coord(v), 0, counts[h].clock, Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: one segment per vertex
    for (index_t v = 0; v < n; ++v) {
      const index_t h = seg_hi[static_cast<size_t>(v)];
      deg[static_cast<size_t>(v)] = counts[h].value.value;
      v_clock[static_cast<size_t>(v)] = Clock::join(
          vals[v].clock, batch[static_cast<size_t>(v)].arrival);
    }
    m.op_bulk(n);
  }

  // ---- live state (host mirrors, updated in lockstep with the messages).
  std::vector<char> alive_v(static_cast<size_t>(n), 1);
  std::vector<char> alive_arc(static_cast<size_t>(m_arcs), 1);
  std::vector<index_t> arc_to(static_cast<size_t>(m_arcs));
  std::vector<index_t> arc_twin = twin_pos;
  std::vector<Clock> arc_clock(static_cast<size_t>(m_arcs));
  for (index_t i = 0; i < m_arcs; ++i) {
    arc_to[static_cast<size_t>(i)] = by[i].value.to;
    arc_clock[static_cast<size_t>(i)] = by[i].clock;
  }
  std::vector<T> val = values;
  auto prio = [&](index_t v) { return detail::contract_priority(salt, v); };

  index_t alive_count = n;
  while (alive_count > 1) {
    ++out.rounds;
    index_t live_arcs = 0;
    for (index_t i = 0; i < m_arcs; ++i) {
      if (alive_arc[static_cast<size_t>(i)]) ++live_arcs;
    }
    out.arc_work += live_arcs;

    // -- bcast: degree to segment head, fanned along the segment.
    std::vector<index_t> from_deg(static_cast<size_t>(m_arcs), 0);
    {
      Machine::PhaseScope bp(m, "tree_contract/bcast");
      std::vector<MessageEvent> batch;
      std::vector<index_t> batch_v;
      for (index_t v = 0; v < n; ++v) {
        if (!alive_v[static_cast<size_t>(v)]) continue;
        const index_t lo = seg_lo[static_cast<size_t>(v)];
        batch.push_back(MessageEvent{vals.coord(v), by.coord(lo), 0,
                                     v_clock[static_cast<size_t>(v)],
                                     Clock{}});
        batch_v.push_back(v);
      }
      m.send_bulk(batch);  // bulk-ok: one segment head per vertex
      GridArray<Seg<index_t>> fan(by.region(), Layout::kZOrder, m_arcs);
      for (index_t i = 0; i < m_arcs; ++i) {
        fan[i] = Cell<Seg<index_t>>{
            Seg<index_t>{0, leader[static_cast<size_t>(i)] != 0},
            arc_clock[static_cast<size_t>(i)]};
      }
      for (size_t k = 0; k < batch.size(); ++k) {
        const index_t v = batch_v[k];
        const index_t lo = seg_lo[static_cast<size_t>(v)];
        fan[lo].value.value = deg[static_cast<size_t>(v)];
        fan[lo].clock = Clock::join(fan[lo].clock, batch[k].arrival);
      }
      GridArray<Seg<index_t>> fanned = segmented_scan(m, fan, First{});
      for (index_t i = 0; i < m_arcs; ++i) {
        from_deg[static_cast<size_t>(i)] = fanned[i].value.value;
        arc_clock[static_cast<size_t>(i)] =
            Clock::join(arc_clock[static_cast<size_t>(i)], fanned[i].clock);
      }
      m.op_bulk(m_arcs);
    }

    // -- exchange: live arcs swap degrees across the twin bijection.
    std::vector<index_t> to_deg(static_cast<size_t>(m_arcs), 0);
    {
      Machine::PhaseScope ep(m, "tree_contract/exchange");
      std::vector<MessageEvent> batch;
      std::vector<index_t> batch_src;
      for (index_t i = 0; i < m_arcs; ++i) {
        if (!alive_arc[static_cast<size_t>(i)]) continue;
        batch.push_back(MessageEvent{
            by.coord(i), by.coord(arc_twin[static_cast<size_t>(i)]), 0,
            arc_clock[static_cast<size_t>(i)], Clock{}});
        batch_src.push_back(i);
      }
      m.send_bulk(batch);  // bulk-ok: the live twin map is a bijection
      for (size_t k = 0; k < batch.size(); ++k) {
        const index_t i = batch_src[k];
        const index_t tw = arc_twin[static_cast<size_t>(i)];
        to_deg[static_cast<size_t>(tw)] = from_deg[static_cast<size_t>(i)];
        arc_clock[static_cast<size_t>(tw)] =
            Clock::join(arc_clock[static_cast<size_t>(tw)], batch[k].arrival);
      }
      m.op_bulk(live_arcs);
    }

    // -- digest: per-vertex neighbourhood aggregate to the vertex cell.
    std::vector<detail::Digest> dig(static_cast<size_t>(n));
    {
      Machine::PhaseScope gp(m, "tree_contract/digest");
      GridArray<Seg<detail::Digest>> a(by.region(), Layout::kZOrder, m_arcs);
      for (index_t i = 0; i < m_arcs; ++i) {
        detail::Digest d;
        if (alive_arc[static_cast<size_t>(i)]) {
          const index_t w = arc_to[static_cast<size_t>(i)];
          const index_t wd = to_deg[static_cast<size_t>(i)];
          d.any = true;
          d.min_deg = wd;
          d.max_prio2 = wd == 2 ? prio(w) : 0;
          d.nbr = w;
          d.nbr_deg = wd;
        }
        a[i] = Cell<Seg<detail::Digest>>{
            Seg<detail::Digest>{d, leader[static_cast<size_t>(i)] != 0},
            arc_clock[static_cast<size_t>(i)]};
      }
      GridArray<Seg<detail::Digest>> scanned =
          segmented_scan(m, a, detail::DigestOp{});
      std::vector<MessageEvent> batch;
      std::vector<index_t> batch_v;
      for (index_t v = 0; v < n; ++v) {
        if (!alive_v[static_cast<size_t>(v)]) continue;
        const index_t h = seg_hi[static_cast<size_t>(v)];
        batch.push_back(MessageEvent{scanned.coord(h), vals.coord(v), 0,
                                     scanned[h].clock, Clock{}});
        batch_v.push_back(v);
      }
      m.send_bulk(batch);  // bulk-ok: one segment per vertex
      for (size_t k = 0; k < batch.size(); ++k) {
        const index_t v = batch_v[k];
        const index_t h = seg_hi[static_cast<size_t>(v)];
        dig[static_cast<size_t>(v)] = scanned[h].value.value;
        v_clock[static_cast<size_t>(v)] =
            Clock::join(v_clock[static_cast<size_t>(v)], batch[k].arrival);
      }
      m.op_bulk(alive_count);
    }

    // -- decide (local): rakes and splices from start-of-round state.
    std::vector<index_t> rakes;    // eliminated leaves
    std::vector<index_t> splices;  // eliminated degree-2 vertices
    for (index_t v = 0; v < n; ++v) {
      if (!alive_v[static_cast<size_t>(v)]) continue;
      const detail::Digest& d = dig[static_cast<size_t>(v)];
      if (deg[static_cast<size_t>(v)] == 1) {
        if (d.nbr_deg > 1 || prio(v) < prio(d.nbr)) rakes.push_back(v);
      } else if (deg[static_cast<size_t>(v)] == 2) {
        if (d.min_deg >= 2 && prio(v) > d.max_prio2) splices.push_back(v);
      }
    }
    m.op_bulk(alive_count);
    assert(!rakes.empty() || !splices.empty());

    // -- fold: eliminated vertices ship value + relink data to the twin
    // arcs of their live arcs. Distinct eliminated vertices have distinct
    // incident edges, so every destination is unique.
    std::vector<char> fold_any(static_cast<size_t>(m_arcs), 0);
    std::vector<T> fold_val(static_cast<size_t>(m_arcs));
    std::vector<index_t> fold_raked(static_cast<size_t>(m_arcs), 0);
    {
      Machine::PhaseScope fp(m, "tree_contract/fold");
      std::vector<MessageEvent> batch;
      struct Apply {
        index_t dst{0};
        bool fold{false};
        T value{};
        index_t raked{0};
        bool relink{false};
        index_t new_to{0};
        index_t new_twin{0};
        bool kill{false};
      };
      std::vector<Apply> applies;
      auto live_arcs_of = [&](index_t v) {
        std::vector<index_t> ps;
        for (index_t i = seg_lo[static_cast<size_t>(v)];
             i <= seg_hi[static_cast<size_t>(v)]; ++i) {
          if (alive_arc[static_cast<size_t>(i)]) ps.push_back(i);
        }
        return ps;
      };
      for (const index_t v : rakes) {
        const std::vector<index_t> ps = live_arcs_of(v);
        assert(ps.size() == 1);
        const index_t p = ps[0];
        const index_t tw = arc_twin[static_cast<size_t>(p)];
        batch.push_back(MessageEvent{
            vals.coord(v), by.coord(tw), 0,
            v_clock[static_cast<size_t>(v)], Clock{}});
        applies.push_back(
            Apply{tw, true, val[static_cast<size_t>(v)], 1, false, 0, 0,
                  true});
        alive_arc[static_cast<size_t>(p)] = 0;
        alive_v[static_cast<size_t>(v)] = 0;
        out.elim_round[static_cast<size_t>(v)] = out.rounds;
      }
      for (const index_t v : splices) {
        const std::vector<index_t> ps = live_arcs_of(v);
        assert(ps.size() == 2);
        const index_t p1 = ps[0];
        const index_t p2 = ps[1];
        const index_t t1 = arc_twin[static_cast<size_t>(p1)];
        const index_t t2 = arc_twin[static_cast<size_t>(p2)];
        batch.push_back(MessageEvent{vals.coord(v), by.coord(t1), 0,
                                     v_clock[static_cast<size_t>(v)],
                                     Clock{}});
        applies.push_back(Apply{t1, true, val[static_cast<size_t>(v)], 0,
                                true, arc_to[static_cast<size_t>(p2)], t2,
                                false});
        batch.push_back(MessageEvent{vals.coord(v), by.coord(t2), 0,
                                     v_clock[static_cast<size_t>(v)],
                                     Clock{}});
        applies.push_back(Apply{t2, false, T{}, 0, true,
                                arc_to[static_cast<size_t>(p1)], t1, false});
        alive_arc[static_cast<size_t>(p1)] = 0;
        alive_arc[static_cast<size_t>(p2)] = 0;
        alive_v[static_cast<size_t>(v)] = 0;
        out.elim_round[static_cast<size_t>(v)] = out.rounds;
      }
      m.send_bulk(batch);  // bulk-ok: one incident edge per destination
      for (size_t k = 0; k < applies.size(); ++k) {
        const Apply& ap = applies[k];
        arc_clock[static_cast<size_t>(ap.dst)] = Clock::join(
            arc_clock[static_cast<size_t>(ap.dst)], batch[k].arrival);
        if (ap.fold) {
          fold_any[static_cast<size_t>(ap.dst)] = 1;
          fold_val[static_cast<size_t>(ap.dst)] = ap.value;
          fold_raked[static_cast<size_t>(ap.dst)] = ap.raked;
        }
        if (ap.relink) {
          arc_to[static_cast<size_t>(ap.dst)] = ap.new_to;
          arc_twin[static_cast<size_t>(ap.dst)] = ap.new_twin;
        }
        if (ap.kill) alive_arc[static_cast<size_t>(ap.dst)] = 0;
      }
      m.op_bulk(static_cast<index_t>(applies.size()));
    }

    // -- collect: fold everything that arrived at a vertex's segment into
    // one message to the vertex cell.
    {
      Machine::PhaseScope cp(m, "tree_contract/collect");
      GridArray<Seg<detail::FoldAcc<T>>> a(by.region(), Layout::kZOrder,
                                           m_arcs);
      for (index_t i = 0; i < m_arcs; ++i) {
        detail::FoldAcc<T> f;
        if (fold_any[static_cast<size_t>(i)]) {
          f = detail::FoldAcc<T>{true, fold_val[static_cast<size_t>(i)],
                                 fold_raked[static_cast<size_t>(i)]};
        }
        a[i] = Cell<Seg<detail::FoldAcc<T>>>{
            Seg<detail::FoldAcc<T>>{f, leader[static_cast<size_t>(i)] != 0},
            arc_clock[static_cast<size_t>(i)]};
      }
      GridArray<Seg<detail::FoldAcc<T>>> scanned =
          segmented_scan(m, a, detail::FoldOp<T, Op>{op});
      std::vector<MessageEvent> batch;
      std::vector<index_t> batch_v;
      for (index_t v = 0; v < n; ++v) {
        if (!alive_v[static_cast<size_t>(v)]) continue;
        const index_t h = seg_hi[static_cast<size_t>(v)];
        if (!scanned[h].value.value.any) continue;
        batch.push_back(MessageEvent{scanned.coord(h), vals.coord(v), 0,
                                     scanned[h].clock, Clock{}});
        batch_v.push_back(v);
      }
      if (!batch.empty()) {
        m.send_bulk(batch);  // bulk-ok: one segment per vertex
      }
      for (size_t k = 0; k < batch.size(); ++k) {
        const index_t v = batch_v[k];
        const index_t h = seg_hi[static_cast<size_t>(v)];
        const detail::FoldAcc<T>& acc = scanned[h].value.value;
        val[static_cast<size_t>(v)] =
            op(val[static_cast<size_t>(v)], acc.value);
        deg[static_cast<size_t>(v)] -= acc.raked;
        v_clock[static_cast<size_t>(v)] =
            Clock::join(v_clock[static_cast<size_t>(v)], batch[k].arrival);
      }
      m.op_bulk(static_cast<index_t>(batch.size()));
    }

    alive_count = 0;
    for (index_t v = 0; v < n; ++v) {
      if (alive_v[static_cast<size_t>(v)]) ++alive_count;
    }
  }

  for (index_t v = 0; v < n; ++v) {
    if (alive_v[static_cast<size_t>(v)]) {
      out.survivor = v;
      out.value = val[static_cast<size_t>(v)];
      m.observe(v_clock[static_cast<size_t>(v)]);
      break;
    }
  }
  return out;
}

}  // namespace scm::tree
