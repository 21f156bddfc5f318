// Bitonic sorting network mapped onto the processor grid (Section V-B).
//
// Each wire of the network is assigned to the processor holding that array
// index (row-major in the paper's Fig. 2); every compare-exchange step
// swaps one pair of wires with two messages. Bitonic Sort is data-oblivious
// with Theta(log^2 n) depth, but on an h x w subgrid it costs
// Theta(h^2 w + w^2 h log h) energy (Lemma V.4) — on a square grid
// Theta(n^{3/2} log n), a log factor off the optimal 2-D Mergesort. It is
// used as a subroutine to sort the gathered sample in the randomized rank
// selection (Section VI step 3), where its low depth matters and its
// energy is not the bottleneck.
#pragma once

#include "sort/keyed.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"

#include <cassert>
#include <span>
#include <utility>
#include <vector>

namespace scm {

/// One compare-exchange of the network: wires i < l exchange their values
/// (two messages), each processor keeps min or max locally. After the step
/// a[i] <= a[l] when `asc`, a[i] >= a[l] otherwise.
template <class T, class Less>
void compare_exchange(Machine& m, GridArray<T>& a, index_t i, index_t l,
                      bool asc, Less less) {
  assert(i < l);
  Cell<T>& lo = a[i];
  Cell<T>& hi = a[l];
  const Clock to_hi = m.send(a.coord(i), a.coord(l), lo.clock);
  const Clock to_lo = m.send(a.coord(l), a.coord(i), hi.clock);
  const Clock joined_lo = Clock::join(lo.clock, to_lo);
  const Clock joined_hi = Clock::join(hi.clock, to_hi);
  m.op(2);
  const bool out_of_order = asc ? less(hi.value, lo.value)
                                : less(lo.value, hi.value);
  if (out_of_order) std::swap(lo.value, hi.value);
  lo.clock = joined_lo;
  hi.clock = joined_hi;
  m.observe(joined_lo);
  m.observe(joined_hi);
}

namespace detail {

/// One wire pair of a compare-exchange round, with its sort direction.
struct WirePair {
  index_t lo{0};
  index_t hi{0};
  bool asc{true};
};

/// Executes one simultaneous compare-exchange round (all pairs of one
/// network step) as a single Machine::send_bulk batch of 2 messages per
/// pair plus one op_bulk and one observe of the round's joined clocks.
/// Pairs of a step touch disjoint wires, so every exchange reads pre-round
/// clocks — exactly what the scalar per-pair loop did. `at` holds every
/// wire's coordinate and `batch` is caller scratch, both reused across
/// rounds.
template <class T, class Less>
void compare_exchange_round(Machine& m, GridArray<T>& a,
                            std::span<const Coord> at,
                            const std::vector<WirePair>& pairs, Less less,
                            std::vector<MessageEvent>& batch) {
  if (pairs.empty()) return;
  batch.resize(2 * pairs.size());
  for (size_t k = 0; k < pairs.size(); ++k) {
    const WirePair& p = pairs[k];
    assert(p.lo < p.hi);
    batch[2 * k] = MessageEvent{at[static_cast<size_t>(p.lo)],
                                at[static_cast<size_t>(p.hi)], 0,
                                a[p.lo].clock, Clock{}};
    batch[2 * k + 1] = MessageEvent{at[static_cast<size_t>(p.hi)],
                                    at[static_cast<size_t>(p.lo)], 0,
                                    a[p.hi].clock, Clock{}};
  }
  m.send_bulk(batch);  // bulk-ok: caller's per-step phase scope attributes
  // bulk-ok: same round, same caller-held scope
  m.op_bulk(static_cast<index_t>(2 * pairs.size()));
  Clock round_max{};
  for (size_t k = 0; k < pairs.size(); ++k) {
    const WirePair& p = pairs[k];
    Cell<T>& lo = a[p.lo];
    Cell<T>& hi = a[p.hi];
    const Clock joined_lo = Clock::join(lo.clock, batch[2 * k + 1].arrival);
    const Clock joined_hi = Clock::join(hi.clock, batch[2 * k].arrival);
    const bool out_of_order =
        p.asc ? less(hi.value, lo.value) : less(lo.value, hi.value);
    if (out_of_order) std::swap(lo.value, hi.value);
    lo.clock = joined_lo;
    hi.clock = joined_hi;
    round_max = Clock::join(round_max, Clock::join(joined_lo, joined_hi));
  }
  m.observe(round_max);
}

}  // namespace detail

/// The Bitonic Merge network (Fig. 2, Lemma V.3): sorts a *bitonic*
/// sequence (e.g. an ascending run followed by a descending run) of
/// power-of-two length in place. Recursively compares wire i with wire
/// i + n/2, then merges both halves. On an h x w subgrid it costs
/// Theta(h^2 w + w^2 h) energy, Theta(log n) depth, Theta(w + h) distance.
template <class T, class Less>
void bitonic_merge(Machine& m, GridArray<T>& a, Less less) {
  assert(is_pow2(a.size()) || a.size() == 0);
  Machine::PhaseScope scope(m, "bitonic_merge");
  const index_t n = a.size();
  std::vector<Coord> at(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) at[static_cast<size_t>(i)] = a.coord(i);
  std::vector<detail::WirePair> pairs;
  std::vector<MessageEvent> batch;
  for (index_t j = n / 2; j > 0; j /= 2) {
    // Each network step is one simultaneous round: every wire holds its
    // value plus at most one arriving partner word (O(1) residency per
    // step, which the per-step scope makes visible to the conformance
    // checker's epoch accounting). The round is charged as one bulk batch.
    Machine::PhaseScope step(m, "bitonic_merge/step");
    pairs.clear();
    for (index_t i = 0; i < n; ++i) {
      if ((i & j) != 0) continue;
      pairs.push_back(detail::WirePair{i, i + j, /*asc=*/true});
    }
    detail::compare_exchange_round(m, a, at, pairs, less, batch);
  }
}

/// Batcher's bitonic sorting network over the wires of `a` (which must have
/// a power-of-two size). Sorts in place under `less`, ascending. The wire
/// -> processor mapping is the array's own layout (row-major reproduces the
/// paper's Fig. 2 analysis; a Z-order mapping is a supported variant with
/// the same asymptotic energy).
template <class T, class Less>
void bitonic_sort(Machine& m, GridArray<T>& a, Less less) {
  assert(is_pow2(a.size()) || a.size() == 0);
  Machine::PhaseScope scope(m, "bitonic_sort");
  const index_t n = a.size();
  std::vector<Coord> at(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) at[static_cast<size_t>(i)] = a.coord(i);
  std::vector<detail::WirePair> pairs;
  std::vector<MessageEvent> batch;
  for (index_t k = 2; k <= n; k *= 2) {
    for (index_t j = k / 2; j > 0; j /= 2) {
      // One simultaneous compare-exchange round; see bitonic_merge.
      Machine::PhaseScope step(m, "bitonic_sort/step");
      pairs.clear();
      for (index_t i = 0; i < n; ++i) {
        const index_t l = i ^ j;
        if (l <= i) continue;
        pairs.push_back(detail::WirePair{i, l, /*asc=*/(i & k) == 0});
      }
      detail::compare_exchange_round(m, a, at, pairs, less, batch);
    }
  }
}

namespace detail {

/// Sentinel-padded element: pads order after every real element, so a
/// padded ascending sort leaves the real elements sorted in the prefix.
template <class T>
struct Padded {
  T value{};
  bool pad{false};
};

template <class Less>
struct PaddedLess {
  Less less{};
  template <class T>
  bool operator()(const Padded<T>& a, const Padded<T>& b) const {
    if (a.pad != b.pad) return b.pad;  // real < pad
    if (a.pad) return false;           // pads tie
    return less(a.value, b.value);
  }
};

}  // namespace detail

/// Bitonic sort for arbitrary n: pads the wire array to the next power of
/// two with +infinity sentinels inside the same region (which must have
/// enough processors), sorts, and returns the real prefix in layout order
/// starting at the array's offset. Energy stays within a constant factor
/// of the power-of-two network.
template <class T, class Less>
[[nodiscard]] GridArray<T> bitonic_sort_any(Machine& m, const GridArray<T>& a,
                                            Less less) {
  const index_t n = a.size();
  if (n <= 1) return a;
  const index_t padded_n = ceil_pow2(n);
  assert(a.offset() + padded_n <= a.region().size());
  GridArray<detail::Padded<T>> wires(a.region(), a.layout(), padded_n,
                                     a.offset());
  for (index_t i = 0; i < n; ++i) {
    wires[i] = Cell<detail::Padded<T>>{{a[i].value, false}, a[i].clock};
  }
  for (index_t i = n; i < padded_n; ++i) {
    wires[i] = Cell<detail::Padded<T>>{{T{}, true}, Clock{}};
  }
  bitonic_sort(m, wires, detail::PaddedLess<Less>{less});
  GridArray<T> out(a.region(), a.layout(), n, a.offset());
  for (index_t i = 0; i < n; ++i) {
    assert(!wires[i].value.pad);
    out[i] = Cell<T>{wires[i].value.value, wires[i].clock};
  }
  return out;
}

}  // namespace scm
