#include "testing/property.hpp"

#include "collectives/baselines.hpp"
#include "collectives/compact.hpp"
#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "graph/components.hpp"
#include "pram/erew.hpp"
#include "pram/program.hpp"
#include "select/select.hpp"
#include "sort/allpairs.hpp"
#include "sort/bitonic.hpp"
#include "sort/keyed.hpp"
#include "sort/mergesort2d.hpp"
#include "sort/permute.hpp"
#include "sort/rank_select_sorted.hpp"
#include "spmv/spmv.hpp"
#include "testing/oracles.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <ostream>
#include <sstream>

namespace scm::testing {

double CaseOutcome::budget(const std::string& metric) const {
  for (const auto& [name, value] : budgets) {
    if (name == metric) return value;
  }
  return -1.0;
}

namespace {

/// Appends " name=[x0<sep>x1...]", each element written by `put`, when
/// `show` holds and `xs` is non-empty.
template <class T, class Put>
void dump_list(std::ostream& os, bool show, const char* name, const char* sep,
               const std::vector<T>& xs, Put put) {
  if (!show || xs.empty()) return;
  os << " " << name << "=[";
  for (size_t i = 0; i < xs.size(); ++i) {
    os << (i ? sep : "");
    put(os, xs[i]);
  }
  os << "]";
}

}  // namespace

std::string CaseInput::str() const {
  std::ostringstream os;
  os << "n=" << n << " shape=" << to_string(shape)
     << " geom=" << to_string(geom.kind) << " region=" << geom.region.str()
     << (geom.zorder ? " z-order" : " row-major");
  if (k != 1) os << " k=" << k;
  if (algo_seed != 0) os << " algo_seed=" << algo_seed;
  if (!triples.empty()) {
    os << " matrix=" << rows << "x" << cols << " nnz=" << triples.size();
  }
  if (n_vertices > 0) {
    os << " vertices=" << n_vertices << " edges=" << edges.size();
  }
  if (pram_steps > 0) os << " pram_steps=" << pram_steps;
  if (tree_shape != TreeShape::kNone) {
    os << " tree=" << to_string(tree_shape);
  }
  const auto plain = [](std::ostream& o, const auto& x) { o << x; };
  dump_list(os, n <= 16, "keys", ",", keys, plain);
  dump_list(os, n <= 16, "perm", ",", perm, plain);
  dump_list(os, n <= 16, "flags", ",", flags,
            [](std::ostream& o, char f) { o << (f ? 1 : 0); });
  dump_list(os, triples.size() <= 16, "triples", " ", triples,
            [](std::ostream& o, const Triple& t) {
              o << "(" << t.row << "," << t.col << "," << t.value << ")";
            });
  dump_list(os, edges.size() <= 16, "edges", " ", edges,
            [](std::ostream& o, const std::pair<index_t, index_t>& e) {
              o << "(" << e.first << "," << e.second << ")";
            });
  return os.str();
}

CaseInput translate_geometry(const CaseInput& in, Coord delta) {
  CaseInput out = in;
  out.geom.region.row0 += delta.row;
  out.geom.region.col0 += delta.col;
  return out;
}

namespace {

Layout layout_of(const CaseInput& in) {
  return in.geom.zorder ? Layout::kZOrder : Layout::kRowMajor;
}

GridArray<std::int64_t> make_keys_array(const CaseInput& in) {
  return GridArray<std::int64_t>::from_values(in.geom.region, layout_of(in),
                                              in.keys);
}

index_t floor_pow2(index_t n) {
  index_t v = 1;
  while (2 * v <= n) v *= 2;
  return v;
}

bool geometry_fits(const CaseInput& in) {
  return in.geom.region.size() >= ceil_pow2(std::max<index_t>(in.n, 1)) &&
         (!in.geom.zorder ||
          (in.geom.region.square() && is_pow2(in.geom.region.rows)));
}

// ---------------------------------------------------------------------------
// Exact host replays of the data-oblivious communication patterns. These
// walk the same loops as the algorithms but only accumulate Manhattan
// distances, giving per-instance budgets with fitted constants ~1 — the
// tightest possible cost oracle (a doubled routing constant fails them
// immediately).
// ---------------------------------------------------------------------------

struct ReplayCost {
  double energy{0};
  double depth{0};     // number of communication rounds
  double distance{0};  // sum over rounds of the round's largest hop

  /// The replay as the instance's budgets.
  [[nodiscard]] std::vector<std::pair<std::string, double>> budgets() const {
    return {{"energy", energy}, {"depth", depth}, {"distance", distance}};
  }
};

/// Replays the bitonic sorting network of bitonic_sort_any over the padded
/// wire coordinates.
ReplayCost replay_bitonic(const CaseInput& in) {
  ReplayCost cost;
  if (in.n <= 1) return cost;
  const index_t padded = ceil_pow2(in.n);
  const GridArray<char> wires(in.geom.region, layout_of(in), padded);
  for (index_t k = 2; k <= padded; k *= 2) {
    for (index_t j = k / 2; j > 0; j /= 2) {
      double round_max = 0;
      bool any = false;
      for (index_t i = 0; i < padded; ++i) {
        const index_t l = i ^ j;
        if (l <= i) continue;
        const auto d =
            static_cast<double>(manhattan(wires.coord(i), wires.coord(l)));
        cost.energy += 2 * d;
        round_max = std::max(round_max, d);
        any = true;
      }
      if (any) {
        cost.depth += 1;
        cost.distance += round_max;
      }
    }
  }
  return cost;
}

/// Replays the binomial-tree round structure shared by binomial_broadcast
/// (forward) and binomial_reduce (reverse): the moves are data-independent.
ReplayCost replay_binomial_broadcast(const Rect& rect) {
  ReplayCost cost;
  const index_t n = rect.size();
  if (n <= 1) return cost;
  const GridArray<char> cells(rect, Layout::kRowMajor, n);
  std::vector<bool> has(static_cast<size_t>(n), false);
  has[0] = true;
  index_t span = ceil_pow2(n);
  for (span /= 2; span >= 1; span /= 2) {
    double round_max = 0;
    bool any = false;
    for (index_t i = 0; i + span < n; ++i) {
      if (!has[static_cast<size_t>(i)] || has[static_cast<size_t>(i + span)]) {
        continue;
      }
      if (i % (span * 2) != 0) continue;
      has[static_cast<size_t>(i + span)] = true;
      const auto d =
          static_cast<double>(manhattan(cells.coord(i), cells.coord(i + span)));
      cost.energy += d;
      round_max = std::max(round_max, d);
      any = true;
    }
    if (any) {
      cost.depth += 1;
      cost.distance += round_max;
    }
  }
  return cost;
}

ReplayCost replay_binomial_reduce(const CaseInput& in) {
  ReplayCost cost;
  const index_t n = in.n;
  if (n <= 1) return cost;
  const GridArray<char> cells(in.geom.region, layout_of(in), n);
  for (index_t span = 1; span < n; span *= 2) {
    double round_max = 0;
    bool any = false;
    for (index_t i = 0; i + span < n; i += span * 2) {
      const auto d =
          static_cast<double>(manhattan(cells.coord(i + span), cells.coord(i)));
      cost.energy += d;
      round_max = std::max(round_max, d);
      any = true;
    }
    if (any) {
      cost.depth += 1;
      cost.distance += round_max;
    }
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Property implementations
// ---------------------------------------------------------------------------

const std::vector<GeomKind> kAllGeoms = {
    GeomKind::kSquareZ,  GeomKind::kSquareRow, GeomKind::kLine,
    GeomKind::kColumn,   GeomKind::kWideRect,  GeomKind::kTallRect,
    GeomKind::kBigSquareZ};
const std::vector<GeomKind> kZGeoms = {GeomKind::kSquareZ,
                                       GeomKind::kBigSquareZ};
const std::vector<GeomKind> kRowGeoms = {
    GeomKind::kSquareRow, GeomKind::kLine, GeomKind::kColumn,
    GeomKind::kWideRect, GeomKind::kTallRect};

CaseInput gen_keys_case(Rng& rng, index_t n,
                        const std::vector<GeomKind>& geoms) {
  CaseInput in;
  in.n = n;
  in.shape = gen_key_shape(rng);
  in.keys = gen_keys(rng, n, in.shape);
  in.geom = gen_geometry(rng, n, pick_geom(rng, geoms));
  return in;
}

bool valid_keys_case(const CaseInput& in) {
  return in.n >= 1 && static_cast<index_t>(in.keys.size()) == in.n &&
         geometry_fits(in);
}

bool z_order(const CaseInput& in) { return in.geom.zorder; }

using KeyArray = GridArray<std::int64_t>;

/// A property over one int64 key array, assembled by keys_property. Its
/// cases come from gen_keys_case on `geoms` at a size clamped to max_n,
/// must pass valid_keys_case, and run with out.size = n and the keys
/// placed on the case geometry. A property sets only the hooks where it
/// differs.
struct KeysCase {
  std::string name;
  index_t min_n{2};
  index_t max_n{256};
  std::vector<GeomKind> geoms = kAllGeoms;
  /// Draws made after the keys (flags, a rank, a seed); null = none.
  std::function<void(Rng&, CaseInput&)> draw{};
  /// A predicate on top of valid_keys_case; null = none.
  std::function<bool(const CaseInput&)> valid{};
  std::function<void(CaseInput&)> rebuild{};
  /// The algorithm and its oracles; fills `out` after the preamble.
  std::function<void(Machine&, const CaseInput&, const KeyArray&,
                     CaseOutcome&)>
      run{};
};

Property keys_property(KeysCase spec) {
  Property p;
  p.name = std::move(spec.name);
  p.min_n = spec.min_n;
  p.max_n = spec.max_n;
  p.generate = [max_n = spec.max_n, geoms = std::move(spec.geoms),
                draw = std::move(spec.draw)](Rng& rng, index_t n) {
    CaseInput in = gen_keys_case(rng, std::min(n, max_n), geoms);
    if (draw) draw(rng, in);
    return in;
  };
  p.valid = [valid = std::move(spec.valid)](const CaseInput& in) {
    return valid_keys_case(in) && (!valid || valid(in));
  };
  p.rebuild = std::move(spec.rebuild);
  p.run = [run = std::move(spec.run)](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    out.size = in.n;
    run(m, in, make_keys_array(in), out);
    return out;
  };
  return p;
}

Property make_bitonic() {
  return keys_property(
      {.name = "bitonic_sort",
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const KeyArray sorted = bitonic_sort_any(m, a, std::less<>{});
         if (!expect_sorted(out, "bitonic_sort output not sorted",
                            sorted.values(), in.keys)) {
           return;
         }
         out.budgets = replay_bitonic(in).budgets();
       }});
}

Property make_mergesort2d() {
  return keys_property(
      {.name = "mergesort2d",
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const KeyArray sorted = mergesort2d(m, a);
         if (!expect_sorted(out, "mergesort2d output not sorted",
                            sorted.values(), in.keys)) {
           return;
         }
         const auto n = static_cast<double>(in.n);
         // Route distance from the input geometry to the canonical square
         // at the same origin, plus the sort itself. The budget carries
         // Theorem V.8's Theta(n^{3/2}) shape, which the implementation
         // now achieves: measured e/n^{3/2} is flat (~9-11 for n in
         // [48, 1024], a power-of-4 quantization sawtooth with no trend)
         // since the Lemma V.6 multiselect shares one sample
         // All-Pairs-Sort across each merge node's three split ranks and
         // the per-rank window is resolved by a walking binary search
         // instead of a second All-Pairs-Sort. (An earlier revision paid
         // three full rank selections per node whose window sorts fitted
         // to n^1.96; its certificate pinned an n^2 budget term here.) The
         // n * lg term absorbs the per-level routing/broadcast work of the
         // deeper base-size-8 recursion at small n.
         const double d = static_cast<double>(in.geom.region.diameter()) +
                          2.0 * static_cast<double>(square_side_for(in.n));
         const double lg = log2ceil(in.n) + 1;
         out.budgets = {
             {"energy", std::pow(n, 1.5) + n * lg + n * (d + 1) + n},
             {"depth", lg * lg * lg + 4},
             {"distance",
              d + 4 * static_cast<double>(square_side_for(in.n)) + 4}};
       }});
}

Property make_permute() {
  Property p;
  p.name = "permute";
  p.min_n = 2;
  p.max_n = 400;
  p.generate = [](Rng& rng, index_t n) {
    CaseInput in;
    in.n = n;
    in.shape = KeyShape::kUniform;
    in.keys = gen_keys(rng, n, in.shape);
    // Exact-fit regions so the whole region is occupied (which makes the
    // reflection metamorphic well-defined): a line, a column, or an h x w
    // rectangle for a random divisor h of n.
    const index_t choice = rng.uniform(0, 2);
    const index_t r0 = rng.uniform(-32, 32);
    const index_t c0 = rng.uniform(-32, 32);
    in.geom.zorder = false;
    if (choice == 0) {
      in.geom.kind = GeomKind::kLine;
      in.geom.region = Rect{r0, c0, 1, n};
    } else if (choice == 1) {
      in.geom.kind = GeomKind::kColumn;
      in.geom.region = Rect{r0, c0, n, 1};
    } else {
      std::vector<index_t> divisors;
      for (index_t h = 1; h * h <= n; ++h) {
        if (n % h == 0) divisors.push_back(h);
      }
      const index_t h = divisors[static_cast<size_t>(
          rng.uniform(0, static_cast<index_t>(divisors.size()) - 1))];
      in.geom.kind = GeomKind::kWideRect;
      in.geom.region = Rect{r0, c0, h, n / h};
    }
    // The reversal permutation is the energy lower-bound witness
    // (Lemma V.1); pin it in a quarter of the cases.
    in.perm = rng.chance(0.25) ? reversal_permutation(n)
                               : gen_permutation(rng, n);
    return in;
  };
  p.valid = [](const CaseInput& in) {
    if (in.n < 1 || static_cast<index_t>(in.keys.size()) != in.n) return false;
    if (in.geom.zorder || in.geom.region.size() != in.n) return false;
    if (static_cast<index_t>(in.perm.size()) != in.n) return false;
    std::vector<char> seen(static_cast<size_t>(in.n), 0);
    for (const index_t d : in.perm) {
      if (d < 0 || d >= in.n || seen[static_cast<size_t>(d)]) return false;
      seen[static_cast<size_t>(d)] = 1;
    }
    return true;
  };
  p.run = [](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    out.size = in.n;
    const GridArray<std::int64_t> a = make_keys_array(in);
    if (inject_bulk_overlap() && in.n >= 2) {
      // Deliberate write-write conflict: two charged members of one batch
      // share a destination, outside any unordered-delivery scope. The
      // independence oracle must flag this before any other oracle runs.
      std::vector<MessageEvent> bad(2);
      bad[0] = MessageEvent{a.coord(0), a.coord(1), 0, Clock{}, Clock{}};
      bad[1] = MessageEvent{a.coord(0), a.coord(1), 0, Clock{}, Clock{}};
      m.send_bulk(bad);  // bulk-ok: test-only injection, unphased on purpose
    }
    const GridArray<std::int64_t> routed = permute(m, a, in.perm);
    const std::vector<std::int64_t> got = routed.values();
    for (index_t i = 0; i < in.n; ++i) {
      const index_t dst = in.perm[static_cast<size_t>(i)];
      if (got[static_cast<size_t>(dst)] != in.keys[static_cast<size_t>(i)]) {
        std::ostringstream os;
        os << "permute: element " << i << " (key "
           << in.keys[static_cast<size_t>(i)] << ") missing at destination "
           << dst << " (found " << got[static_cast<size_t>(dst)] << ")";
        fail(out, os.str());
        return out;
      }
    }
    // Direct routing achieves the Manhattan-sum lower bound exactly
    // (Lemma V.1), with O(1) depth; the certificates for this property are
    // exact (constant 1).
    double energy = 0;
    double max_hop = 0;
    for (index_t i = 0; i < in.n; ++i) {
      const auto d = static_cast<double>(manhattan(
          a.coord(i), a.coord(in.perm[static_cast<size_t>(i)])));
      energy += d;
      max_hop = std::max(max_hop, d);
    }
    out.budgets = {{"energy", energy},
                   {"depth", energy > 0 ? 1.0 : 0.0},
                   {"distance", max_hop}};
    return out;
  };
  p.reflect = [](const CaseInput& in) -> std::optional<CaseInput> {
    if (in.geom.zorder || in.geom.region.size() != in.n) return std::nullopt;
    const Rect r = in.geom.region;
    auto sigma = [&](index_t i) {
      return (i / r.cols) * r.cols + (r.cols - 1 - i % r.cols);
    };
    CaseInput out = in;
    for (index_t i = 0; i < in.n; ++i) {
      out.keys[static_cast<size_t>(sigma(i))] = in.keys[static_cast<size_t>(i)];
      out.perm[static_cast<size_t>(sigma(i))] =
          sigma(in.perm[static_cast<size_t>(i)]);
    }
    return out;
  };
  p.rebuild = [](CaseInput& in) {
    in.n = std::min<index_t>(in.n, static_cast<index_t>(in.keys.size()));
    in.keys.resize(static_cast<size_t>(in.n));
    in.perm.resize(static_cast<size_t>(in.n));
    // Exact-fit line so region.size() == n survives any n.
    in.geom.kind = GeomKind::kLine;
    in.geom.region = Rect{0, 0, 1, in.n};
    in.geom.zorder = false;
  };
  return p;
}

Property make_scan(bool exclusive) {
  return keys_property(
      {.name = exclusive ? "exclusive_scan" : "scan",
       .max_n = 400,
       .geoms = kZGeoms,
       .valid = z_order,
       .run = [exclusive](Machine& m, const CaseInput& in, const KeyArray& a,
                          CaseOutcome& out) {
         const KeyArray result =
             exclusive ? exclusive_scan(m, a, Plus{}, std::int64_t{0})
                       : scan(m, a, Plus{});
         if (!expect_prefix(out, "scan prefix mismatch", result.values(),
                            in.keys, exclusive)) {
           return;
         }
         // Lemma IV.3: O(n) energy, O(log n) depth, O(sqrt n) distance.
         // Z-order nesting keeps the first ceil_pow4(n) curve positions
         // inside an aligned subsquare, so underfilled big regions cost the
         // same.
         const auto n = static_cast<double>(in.n);
         out.budgets = {{"energy", n + 4},
                        {"depth", log2ceil(in.n) + 2},
                        {"distance", 4.0 * (std::sqrt(n) + 1)}};
       }});
}

Property make_sequential_scan() {
  return keys_property(
      {.name = "sequential_scan",
       .geoms = kZGeoms,
       .valid = z_order,
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const KeyArray result = sequential_scan(m, a, Plus{});
         if (!expect_prefix(out, "sequential_scan prefix mismatch",
                            result.values(), in.keys, /*exclusive=*/false)) {
           return;
         }
         // Exact replay of the curve walk (Observation 1): one hop per
         // adjacent element pair, a single dependent chain.
         double energy = 0;
         for (index_t i = 1; i < in.n; ++i) {
           energy += static_cast<double>(manhattan(a.coord(i - 1), a.coord(i)));
         }
         out.budgets = {{"energy", energy},
                        {"depth", static_cast<double>(in.n - 1)},
                        {"distance", energy}};
       }});
}

Property make_tree_scan_1d() {
  Property p = keys_property(
      {.name = "tree_scan_1d",
       .geoms = {GeomKind::kSquareZ, GeomKind::kSquareRow},
       .valid = [](const CaseInput& in) { return is_pow2(in.n); },
       .rebuild =
           [](CaseInput& in) {
             in.n = floor_pow2(std::max<index_t>(
                 std::min<index_t>(in.n, static_cast<index_t>(in.keys.size())),
                 1));
             in.keys.resize(static_cast<size_t>(in.n));
             in.geom = canonical_geometry(in.geom.kind, in.n);
           },
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const KeyArray result = tree_scan_1d(m, a, Plus{});
         if (!expect_prefix(out, "tree_scan_1d prefix mismatch",
                            result.values(), in.keys, /*exclusive=*/false)) {
           return;
         }
         // Theta(n log n) energy in row-major (Section IV-C), O(n) in
         // Z-order (the ablation); the n log n shape covers both.
         const auto n = static_cast<double>(in.n);
         const double lg = log2ceil(in.n) + 1;
         out.budgets = {{"energy", n * lg},
                        {"depth", 2 * lg},
                        {"distance", (std::sqrt(n) + 1) * lg}};
       }});
  // The tree needs a power-of-two size: round the target down before the
  // keys are drawn.
  p.generate = [keys_case = p.generate](Rng& rng, index_t n) {
    return keys_case(rng, floor_pow2(std::max<index_t>(n, 2)));
  };
  return p;
}

Property make_binomial_broadcast() {
  Property p;
  p.name = "binomial_broadcast";
  p.min_n = 2;
  p.max_n = 300;
  p.metamorphic_translation = true;
  p.generate = [](Rng& rng, index_t n) {
    CaseInput in;
    in.geom = gen_geometry(rng, n, pick_geom(rng, kRowGeoms));
    in.n = in.geom.region.size();  // the broadcast covers the whole rect
    in.shape = KeyShape::kAllEqual;
    in.keys = {rng.uniform(-1000, 1000)};
    return in;
  };
  p.valid = [](const CaseInput& in) {
    return in.n >= 1 && in.keys.size() == 1 && !in.geom.zorder &&
           in.geom.region.size() == in.n;
  };
  p.rebuild = [](CaseInput& in) {
    in.n = std::max<index_t>(in.n, 1);
    in.keys.resize(1);
    in.geom.kind = GeomKind::kLine;
    in.geom.region = Rect{0, 0, 1, in.n};  // exact fit: the rect IS the input
    in.geom.zorder = false;
  };
  p.run = [](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    out.size = in.n;
    const std::int64_t v = in.keys[0];
    const GridArray<std::int64_t> result =
        binomial_broadcast(m, in.geom.region, Cell<std::int64_t>{v, Clock{}});
    const std::vector<std::int64_t> got = result.values();
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i] != v) {
        std::ostringstream os;
        os << "binomial_broadcast: cell " << i << " holds " << got[i]
           << " want " << v;
        fail(out, os.str());
        return out;
      }
    }
    out.budgets = replay_binomial_broadcast(in.geom.region).budgets();
    return out;
  };
  return p;
}

Property make_binomial_reduce() {
  return keys_property(
      {.name = "binomial_reduce",
       .max_n = 300,
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const Cell<std::int64_t> total = binomial_reduce(m, a, Plus{});
         std::int64_t want = 0;
         for (const std::int64_t key : in.keys) want += key;
         if (total.value != want) {
           std::ostringstream os;
           os << "binomial_reduce: got " << total.value << " want " << want;
           fail(out, os.str());
           return;
         }
         out.budgets = replay_binomial_reduce(in).budgets();
       }});
}

Property make_compact() {
  return keys_property(
      {.name = "compact",
       .max_n = 300,
       .geoms = kZGeoms,
       .draw =
           [](Rng& rng, CaseInput& in) {
             static constexpr double kDensities[] = {0.0, 0.1, 0.5, 0.9, 1.0};
             const double density = kDensities[rng.uniform(0, 4)];
             in.flags.resize(static_cast<size_t>(in.n));
             for (auto& f : in.flags) f = rng.chance(density) ? 1 : 0;
           },
       .valid =
           [](const CaseInput& in) {
             return in.geom.zorder &&
                    static_cast<index_t>(in.flags.size()) == in.n;
           },
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         index_t count = 0;
         for (const char f : in.flags) count += f;
         const KeyArray result = compact_flagged(m, a, in.flags, count);
         std::vector<std::int64_t> want;
         for (index_t i = 0; i < in.n; ++i) {
           if (in.flags[static_cast<size_t>(i)]) {
             want.push_back(in.keys[static_cast<size_t>(i)]);
           }
         }
         if (!expect_equal(out, "compact survivors mismatch", result.values(),
                           want)) {
           return;
         }
         // Budget: the scan's O(n) plus the exact Manhattan sum of the
         // direct survivor messages (destinations are known host-side).
         const GridArray<char> dst =
             GridArray<char>::on_square(in.geom.region.origin(), count);
         double direct = 0;
         index_t slot = 0;
         for (index_t i = 0; i < in.n; ++i) {
           if (!in.flags[static_cast<size_t>(i)]) continue;
           direct +=
               static_cast<double>(manhattan(a.coord(i), dst.coord(slot)));
           ++slot;
         }
         const auto n = static_cast<double>(in.n);
         out.budgets = {{"energy", n + direct + 4},
                        {"depth", log2ceil(in.n) + 3},
                        {"distance", 4 * (std::sqrt(n) + 1)}};
       }});
}

Property make_select() {
  return keys_property(
      {.name = "select_rank",
       .min_n = 4,
       .draw =
           [](Rng& rng, CaseInput& in) {
             in.k = rng.uniform(1, in.n);
             in.algo_seed = rng.next();
           },
       .valid = [](const CaseInput& in) { return in.k >= 1 && in.k <= in.n; },
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const SelectResult<std::int64_t> result =
             select_rank(m, a, in.k, in.algo_seed);
         std::vector<std::int64_t> sorted = in.keys;
         std::sort(sorted.begin(), sorted.end());
         const std::int64_t want = sorted[static_cast<size_t>(in.k - 1)];
         if (result.value != want) {
           std::ostringstream os;
           os << "select_rank: rank " << in.k << " got " << result.value
              << " want " << want;
           fail(out, os.str());
           return;
         }
         if (result.fell_back) {
           // The sort fallback is a legal low-probability event (Lemma
           // VI.1, prob <= 2 n^{-c/6} — non-negligible at fuzz sizes) with
           // different cost bounds; only the functional oracle applies.
           out.skip_cost = true;
           return;
         }
         // Theorem VI.3 with the run's actual iteration count: O(n) energy
         // per iteration plus the route to the canonical square.
         const auto n = static_cast<double>(in.n);
         const auto iters = static_cast<double>(result.iterations);
         const double side = static_cast<double>(square_side_for(in.n));
         const double d =
             static_cast<double>(in.geom.region.diameter()) + 2 * side;
         const double lg = log2ceil(in.n) + 2;
         out.budgets = {{"energy", (iters + 2) * (n + 16) + n * (d + 1)},
                        {"depth", (iters + 2) * lg * lg},
                        {"distance", (iters + 2) * (d + 4 * side + 8)}};
       }});
}

Property make_allpairs() {
  return keys_property(
      {.name = "allpairs_sort",
       .max_n = 48,  // Theta(n^{5/2}) energy: keep instances sample-sized
       .geoms = {GeomKind::kSquareZ},
       .valid = z_order,
       .run = [](Machine& m, const CaseInput& in, const KeyArray& a,
                 CaseOutcome& out) {
         const KeyArray sorted = allpairs_sort_stable(m, a, std::less<>{});
         if (!expect_sorted(out, "allpairs_sort output not sorted",
                            sorted.values(), in.keys)) {
           return;
         }
         // Lemma V.5: O(n^{5/2}) energy, O(log n) depth, O(n) distance.
         const auto n = static_cast<double>(in.n);
         out.budgets = {{"energy", std::pow(n, 2.5) + 8 * n},
                        {"depth", log2ceil(in.n) + 3},
                        {"distance", 8 * (n + 1)}};
       }});
}

Property make_rank_select_two_sorted() {
  Property p;
  p.name = "rank_select_two_sorted";
  p.min_n = 2;
  p.max_n = 256;
  p.generate = [](Rng& rng, index_t n) {
    CaseInput in;
    in.n = n;
    in.shape = gen_key_shape(rng);
    in.keys = gen_keys(rng, n, in.shape);
    in.rows = rng.uniform(0, n);  // rows doubles as |A|; |B| = n - |A|
    const auto na = static_cast<size_t>(in.rows);
    std::sort(in.keys.begin(), in.keys.begin() + static_cast<long>(na));
    std::sort(in.keys.begin() + static_cast<long>(na), in.keys.end());
    in.k = rng.uniform(0, n);
    in.geom = gen_geometry(rng, n, GeomKind::kSquareZ);
    return in;
  };
  p.valid = [](const CaseInput& in) {
    if (in.n < 1 || static_cast<index_t>(in.keys.size()) != in.n) return false;
    if (in.rows < 0 || in.rows > in.n || in.k < 0 || in.k > in.n) return false;
    const auto na = static_cast<size_t>(in.rows);
    return std::is_sorted(in.keys.begin(),
                          in.keys.begin() + static_cast<long>(na)) &&
           std::is_sorted(in.keys.begin() + static_cast<long>(na),
                          in.keys.end());
  };
  p.rebuild = [](CaseInput& in) {
    in.n = std::min<index_t>(in.n, static_cast<index_t>(in.keys.size()));
    in.keys.resize(static_cast<size_t>(in.n));
    in.rows = std::clamp<index_t>(in.rows, 0, in.n);
    const auto na = static_cast<long>(in.rows);
    std::sort(in.keys.begin(), in.keys.begin() + na);
    std::sort(in.keys.begin() + na, in.keys.end());
    in.k = std::clamp<index_t>(in.k, 0, in.n);
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
  };
  p.run = [](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    out.size = in.n;
    const index_t na = in.rows;
    const index_t nb = in.n - na;
    using E = WithId<std::int64_t>;
    // Ids are assigned in per-array sorted order, so both arrays are sorted
    // under the induced strict total order (TotalLess).
    std::vector<E> a_vals(static_cast<size_t>(na));
    std::vector<E> b_vals(static_cast<size_t>(nb));
    for (index_t i = 0; i < na; ++i) {
      a_vals[static_cast<size_t>(i)] = E{in.keys[static_cast<size_t>(i)], i};
    }
    for (index_t i = 0; i < nb; ++i) {
      b_vals[static_cast<size_t>(i)] =
          E{in.keys[static_cast<size_t>(na + i)], na + i};
    }
    const Coord origin = in.geom.origin();
    const index_t side_a = square_side_for(na);
    const GridArray<E> a = GridArray<E>::from_values_square(origin, a_vals);
    const GridArray<E> b = GridArray<E>::from_values_square(
        {origin.row, origin.col + side_a + 1}, b_vals);
    const TotalLess<std::less<std::int64_t>> less{};
    const SplitResult split =
        rank_select_two_sorted(m, a, b, in.k, origin, less);
    // Host reference: two-pointer merge under the same total order.
    index_t want_a = 0;
    index_t ia = 0;
    index_t ib = 0;
    for (index_t taken = 0; taken < in.k; ++taken) {
      const bool from_a =
          ib >= nb ||
          (ia < na && less(a_vals[static_cast<size_t>(ia)],
                           b_vals[static_cast<size_t>(ib)]));
      if (from_a) {
        ++ia;
        ++want_a;
      } else {
        ++ib;
      }
    }
    if (split.a_count != want_a || split.b_count != in.k - want_a) {
      std::ostringstream os;
      os << "rank_select_two_sorted: k=" << in.k << " got (" << split.a_count
         << "," << split.b_count << ") want (" << want_a << ","
         << in.k - want_a << ")";
      fail(out, os.str());
      return out;
    }
    // Lemma V.6's O(n^{5/4}) energy, which the implementation now meets:
    // the window around the sample pivot is resolved by a walking binary
    // search (O(sqrt(n) log n)) instead of a window All-Pairs-Sort, so the
    // only super-linear term left is the O(sqrt n)-sized sample's own
    // All-Pairs-Sort. (The earlier window sort pushed the measured shape
    // to Theta(n^{3/2}); this budget used to pin that.) The linear term
    // covers the sample gather; the constant absorbs tiny-n setup.
    const auto n = static_cast<double>(in.n);
    out.budgets = {{"energy", std::pow(n, 1.25) + n + 16},
                   {"depth", log2ceil(in.n) + 2},
                   {"distance", 8 * (std::sqrt(n) + 1)}};
    return out;
  };
  return p;
}

Property make_spmv() {
  Property p;
  p.name = "spmv";
  p.min_n = 2;
  p.max_n = 24;  // n is the matrix dimension; nnz ~ density * n^2
  p.metamorphic_translation = false;  // subgrid origins are internal
  p.generate = [](Rng& rng, index_t n) {
    CaseInput in;
    in.n = std::min<index_t>(std::max<index_t>(n, 2), 24);
    in.rows = in.n;
    in.cols = in.n;
    const double density = 0.05 + 0.45 * rng.real();
    const CooMatrix mat = gen_matrix(rng, in.rows, in.cols, density);
    in.triples = mat.entries();
    in.keys.resize(static_cast<size_t>(in.n));
    for (auto& x : in.keys) x = rng.uniform(-8, 8);
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
    return in;
  };
  p.valid = [](const CaseInput& in) {
    if (in.n < 1 || in.rows != in.n || in.cols != in.n) return false;
    if (static_cast<index_t>(in.keys.size()) != in.n) return false;
    if (in.triples.empty()) return false;
    for (const Triple& t : in.triples) {
      if (t.row < 0 || t.row >= in.rows || t.col < 0 || t.col >= in.cols) {
        return false;
      }
    }
    return true;
  };
  p.rebuild = [](CaseInput& in) {
    in.n = std::max<index_t>(in.n, 1);
    in.rows = in.n;
    in.cols = in.n;
    in.keys.resize(static_cast<size_t>(in.n), 0);
    std::erase_if(in.triples, [&](const Triple& t) {
      return t.row < 0 || t.row >= in.n || t.col < 0 || t.col >= in.n;
    });
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
  };
  p.run = [](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    CooMatrix mat(in.rows, in.cols);
    for (const Triple& t : in.triples) mat.add(t.row, t.col, t.value);
    std::vector<double> x(static_cast<size_t>(in.n));
    for (index_t i = 0; i < in.n; ++i) {
      x[static_cast<size_t>(i)] =
          static_cast<double>(in.keys[static_cast<size_t>(i)]);
    }
    const SpmvResult result = spmv(m, mat, x);
    // All values are small integers, so double sums are exact and
    // order-independent: the comparison is exact equality.
    const std::vector<double> want = mat.multiply_reference(x);
    if (!expect_equal(out, "spmv product mismatch", result.y, want)) {
      return out;
    }
    const index_t s = mat.nnz() + in.n;
    out.size = s;
    const auto sd = static_cast<double>(s);
    const double lg = log2ceil(s) + 2;
    // Theorem VIII.2: O(m^{3/2}) energy, O(log^3 n) depth, O(sqrt m)
    // distance in the combined matrix + vector size. The cost is dominated
    // by the two triple mergesorts, which now run at the Theorem V.8 shape
    // (see the mergesort2d budget note — an s^2 term used to pin the old
    // quadratic merge here); the s * lg term tracks the sort's per-level
    // routing work at small s.
    out.budgets = {{"energy", std::pow(sd, 1.5) + sd * lg + 4 * sd},
                   {"depth", lg * lg * lg + 8},
                   {"distance", 4 * (std::sqrt(sd) + 1) * lg}};
    return out;
  };
  return p;
}

Property make_components() {
  Property p;
  p.name = "components";
  p.min_n = 2;
  p.max_n = 24;  // n is the vertex count
  p.metamorphic_translation = false;  // subgrid origins are internal
  p.generate = [](Rng& rng, index_t n) {
    CaseInput in;
    in.n = std::min<index_t>(std::max<index_t>(n, 2), 24);
    in.n_vertices = in.n;
    const index_t m_edges = rng.uniform(1, 3 * in.n);
    in.edges = gen_edges(rng, in.n, m_edges);
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
    return in;
  };
  p.valid = [](const CaseInput& in) {
    if (in.n < 1 || in.n_vertices != in.n || in.edges.empty()) return false;
    for (const auto& [u, v] : in.edges) {
      if (u < 0 || u >= in.n || v < 0 || v >= in.n) return false;
    }
    return true;
  };
  p.rebuild = [](CaseInput& in) {
    in.n = std::max<index_t>(in.n, 1);
    in.n_vertices = in.n;
    std::erase_if(in.edges, [&](const std::pair<index_t, index_t>& e) {
      return e.first < 0 || e.first >= in.n || e.second < 0 ||
             e.second >= in.n;
    });
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
  };
  p.run = [](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    const graph::EdgeList g{in.n_vertices, in.edges};
    const graph::ComponentsResult result = graph::connected_components(m, g);
    const std::vector<index_t> want = graph::reference_components(g);
    if (!expect_equal(out, "components labels mismatch", result.label,
                      want)) {
      return out;
    }
    // O(m^{3/2} + R (m + n sqrt m)) energy with the run's actual round
    // count R (using the graph diameter would false-fail high-diameter
    // random graphs). The s^{3/2} + s * lg terms cover the two arc
    // mergesorts, paid once outside the round loop, at the Theorem V.8
    // shape the merge now achieves (an s^2 term used to pin the old
    // quadratic merge here — see the mergesort2d budget note).
    const auto s = static_cast<double>(
        2 * static_cast<index_t>(in.edges.size()) + in.n_vertices);
    out.size = static_cast<index_t>(s);
    const auto rounds = static_cast<double>(result.rounds);
    const double lg = log2ceil(static_cast<index_t>(s)) + 2;
    out.budgets = {
        {"energy", std::pow(s, 1.5) + s * lg +
                       (rounds + 1) * (s + static_cast<double>(in.n_vertices) *
                                               (std::sqrt(s) + 1)) +
                       s},
        {"depth", lg * lg * lg + (rounds + 1) * lg},
        {"distance", (rounds + 1) * (std::sqrt(s) + 1) * lg}};
    return out;
  };
  return p;
}

/// Random straight-line EREW program: in step t every processor q reads
/// cell read_perm_t[q], adds 1, and writes the result to write_perm_t[q].
/// Permutation schedules make every step exclusive by construction.
class ScheduleProgram final : public pram::Program {
 public:
  ScheduleProgram(index_t p, index_t steps, const std::vector<index_t>& sched)
      : p_(p), steps_(steps), sched_(sched) {
    assert(static_cast<index_t>(sched.size()) == 2 * steps * p);
  }

  [[nodiscard]] index_t num_processors() const override { return p_; }
  [[nodiscard]] index_t num_cells() const override { return p_; }
  [[nodiscard]] index_t num_steps() const override { return steps_; }

  [[nodiscard]] std::optional<index_t> read_request(
      index_t t, index_t q, const pram::ProcessorState&) const override {
    return sched_[static_cast<size_t>((2 * t) * p_ + q)];
  }

  std::optional<pram::WriteOp> execute(
      index_t t, index_t q, pram::ProcessorState& state,
      std::optional<pram::Word> read) const override {
    state.reg[0] = *read + 1.0;
    return pram::WriteOp{sched_[static_cast<size_t>((2 * t + 1) * p_ + q)],
                         state.reg[0]};
  }

 private:
  index_t p_;
  index_t steps_;
  const std::vector<index_t>& sched_;
};

Property make_pram_erew() {
  Property p;
  p.name = "pram_erew";
  p.min_n = 2;
  p.max_n = 64;  // n is the processor (= cell) count
  p.metamorphic_translation = false;  // placement is fixed at the origin
  p.generate = [](Rng& rng, index_t n) {
    CaseInput in;
    in.n = std::min<index_t>(std::max<index_t>(n, 2), 64);
    in.shape = KeyShape::kUniform;
    in.keys.resize(static_cast<size_t>(in.n));
    for (auto& key : in.keys) key = rng.uniform(-64, 64);
    in.pram_steps = rng.uniform(1, 6);
    in.pram_sched = gen_pram_schedule(rng, in.n, in.pram_steps);
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
    return in;
  };
  p.valid = [](const CaseInput& in) {
    if (in.n < 1 || in.pram_steps < 1) return false;
    if (static_cast<index_t>(in.keys.size()) != in.n) return false;
    if (static_cast<index_t>(in.pram_sched.size()) !=
        2 * in.pram_steps * in.n) {
      return false;
    }
    // Every block must be a permutation of [0, n) (EREW safety).
    for (index_t blk = 0; blk < 2 * in.pram_steps; ++blk) {
      std::vector<char> seen(static_cast<size_t>(in.n), 0);
      for (index_t q = 0; q < in.n; ++q) {
        const index_t cell = in.pram_sched[static_cast<size_t>(blk * in.n + q)];
        if (cell < 0 || cell >= in.n || seen[static_cast<size_t>(cell)]) {
          return false;
        }
        seen[static_cast<size_t>(cell)] = 1;
      }
    }
    return true;
  };
  p.rebuild = [](CaseInput& in) {
    // Recover the pre-shrink block width from the schedule's shape, then
    // re-derive a schedule over the (possibly smaller) new n / step count
    // by truncating blocks and rank-compressing each one back into a
    // permutation of [0, n).
    in.pram_steps = std::max<index_t>(in.pram_steps, 1);
    const index_t old_p =
        in.pram_sched.empty()
            ? 0
            : static_cast<index_t>(in.pram_sched.size()) / (2 * in.pram_steps);
    in.n = std::clamp<index_t>(in.n, 1, std::max<index_t>(old_p, 1));
    std::vector<index_t> rebuilt;
    rebuilt.reserve(static_cast<size_t>(2 * in.pram_steps * in.n));
    for (index_t blk = 0; blk < 2 * in.pram_steps; ++blk) {
      std::vector<index_t> vals;
      for (index_t q = 0; q < in.n && blk * old_p + q <
                                          static_cast<index_t>(
                                              in.pram_sched.size());
           ++q) {
        vals.push_back(in.pram_sched[static_cast<size_t>(blk * old_p + q)]);
      }
      vals.resize(static_cast<size_t>(in.n), 0);
      // Rank-compress: replace each value by its rank (ties by position),
      // yielding a permutation of [0, n).
      std::vector<index_t> order(vals.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<index_t>(i);
      }
      std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
        const index_t va = vals[static_cast<size_t>(a)];
        const index_t vb = vals[static_cast<size_t>(b)];
        return va != vb ? va < vb : a < b;
      });
      std::vector<index_t> ranked(vals.size());
      for (size_t r = 0; r < order.size(); ++r) {
        ranked[static_cast<size_t>(order[r])] = static_cast<index_t>(r);
      }
      rebuilt.insert(rebuilt.end(), ranked.begin(), ranked.end());
    }
    in.pram_sched = std::move(rebuilt);
    in.keys.resize(static_cast<size_t>(in.n), 0);
    in.geom = canonical_geometry(GeomKind::kSquareZ, in.n);
  };
  p.run = [](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    out.size = in.n;
    std::vector<pram::Word> memory(static_cast<size_t>(in.n));
    for (index_t i = 0; i < in.n; ++i) {
      memory[static_cast<size_t>(i)] =
          static_cast<double>(in.keys[static_cast<size_t>(i)]);
    }
    const ScheduleProgram prog(in.n, in.pram_steps, in.pram_sched);
    const std::vector<pram::Word> got = simulate_erew(m, prog, memory);
    // Host reference with the same read-all-then-write-all semantics.
    std::vector<pram::Word> want = memory;
    for (index_t t = 0; t < in.pram_steps; ++t) {
      std::vector<pram::Word> reads(static_cast<size_t>(in.n));
      for (index_t q = 0; q < in.n; ++q) {
        reads[static_cast<size_t>(q)] = want[static_cast<size_t>(
            in.pram_sched[static_cast<size_t>((2 * t) * in.n + q)])];
      }
      for (index_t q = 0; q < in.n; ++q) {
        want[static_cast<size_t>(
            in.pram_sched[static_cast<size_t>((2 * t + 1) * in.n + q)])] =
            reads[static_cast<size_t>(q)] + 1.0;
      }
    }
    if (!expect_equal(out, "pram_erew final memory mismatch", got, want)) {
      return out;
    }
    // Lemma VII.1 per step: O(p (sqrt p + sqrt m)) energy, O(1) depth,
    // O(sqrt p + sqrt m) distance; here m = p.
    const auto n = static_cast<double>(in.n);
    const auto steps = static_cast<double>(in.pram_steps);
    const double side = static_cast<double>(square_side_for(in.n));
    out.budgets = {{"energy", (steps + 1) * n * (2 * side + 2)},
                   {"depth", 5 * (steps + 1)},
                   {"distance", (steps + 1) * (4 * side + 4)}};
    return out;
  };
  return p;
}

}  // namespace

const std::vector<Property>& all_properties() {
  // Registry order is part of the replay contract (runner round-robins by
  // case index); append only, never reorder (docs/TESTING.md).
  static const std::vector<Property> props = [] {
    std::vector<Property> all;
    all.push_back(make_bitonic());
    all.push_back(make_mergesort2d());
    all.push_back(make_permute());
    all.push_back(make_scan(/*exclusive=*/false));
    all.push_back(make_scan(/*exclusive=*/true));
    all.push_back(make_sequential_scan());
    all.push_back(make_tree_scan_1d());
    all.push_back(make_binomial_broadcast());
    all.push_back(make_binomial_reduce());
    all.push_back(make_compact());
    all.push_back(make_select());
    all.push_back(make_allpairs());
    all.push_back(make_rank_select_two_sorted());
    all.push_back(make_spmv());
    all.push_back(make_components());
    all.push_back(make_pram_erew());
    append_tree_properties(all);  // euler_tour, tree_reduce, tree_contract,
                                  // tree_lca (testing/property_tree.cpp)
    return all;
  }();
  return props;
}

const Property* find_property(const std::string& name) {
  for (const Property& p : all_properties()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

namespace {
bool g_inject_bulk_overlap = false;
}  // namespace

void set_inject_bulk_overlap(bool on) { g_inject_bulk_overlap = on; }

bool inject_bulk_overlap() { return g_inject_bulk_overlap; }

}  // namespace scm::testing
