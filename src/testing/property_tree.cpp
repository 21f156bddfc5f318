// Tree-workload properties: euler_tour, tree_reduce, tree_contract and
// tree_lca, each certified by all seven oracle families of the runner
// (functional, conformance, independence, certificate, metamorphic
// translation + relabeling, bulk-A/B, parallel engine).
//
// The CaseInput field mapping (docs/TESTING.md):
//   n          vertex count          edges  the tree's edge list (labels)
//   k          root label + 1        keys   per-vertex int64 values
//   perm       flattened LCA query pairs (<= 32 queries)
//   algo_seed  contraction priority salt    tree_shape  generator family
//
// All four algorithms normalize to dense first-appearance ids before any
// message is sent, so the relabeling oracle demands bit-identical metrics
// AND an identical per-link occupancy multiset under a random renaming of
// the vertex labels; translation does the same for a grid shift.
#include "testing/property.hpp"

#include "collectives/operators.hpp"
#include "testing/oracles.hpp"
#include "tree/contraction.hpp"
#include "tree/euler.hpp"
#include "tree/lca.hpp"
#include "tree/reductions.hpp"
#include "tree/tree.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

namespace scm::testing {

namespace {

[[nodiscard]] tree::Tree tree_of(const CaseInput& in) {
  return tree::Tree{in.n, in.edges, in.k - 1};
}

[[nodiscard]] std::vector<std::pair<index_t, index_t>> queries_of(
    const CaseInput& in) {
  std::vector<std::pair<index_t, index_t>> qs;
  qs.reserve(in.perm.size() / 2);
  for (size_t i = 0; i + 1 < in.perm.size(); i += 2) {
    qs.emplace_back(in.perm[i], in.perm[i + 1]);
  }
  return qs;
}

/// Dense-indexed values from the label-indexed key array.
[[nodiscard]] std::vector<std::int64_t> dense_values(
    const tree::DenseTree& dt, const std::vector<std::int64_t>& keys) {
  std::vector<std::int64_t> vals(static_cast<size_t>(dt.n));
  for (index_t d = 0; d < dt.n; ++d) {
    vals[static_cast<size_t>(d)] =
        keys[static_cast<size_t>(dt.to_label[static_cast<size_t>(d)])];
  }
  return vals;
}

/// Dense-indexed machine output mapped back to vertex labels.
[[nodiscard]] std::vector<std::int64_t> to_label_order(
    const tree::DenseTree& dt, const std::vector<std::int64_t>& dense) {
  std::vector<std::int64_t> out(static_cast<size_t>(dt.n));
  for (index_t d = 0; d < dt.n; ++d) {
    out[static_cast<size_t>(dt.to_label[static_cast<size_t>(d)])] =
        dense[static_cast<size_t>(d)];
  }
  return out;
}

CaseInput gen_tree_case(Rng& rng, index_t target, index_t max_n,
                        bool with_queries) {
  CaseInput in;
  in.n = std::clamp<index_t>(target, 1, max_n);
  in.n_vertices = in.n;
  in.tree_shape = gen_tree_shape(rng);
  in.edges = gen_tree(rng, in.n, in.tree_shape);
  in.k = rng.uniform(0, in.n - 1) + 1;  // root label + 1 (k stays >= 1)
  in.shape = gen_key_shape(rng);
  in.keys = gen_keys(rng, in.n, in.shape);
  in.algo_seed = rng.next();
  in.geom = gen_geometry(rng, in.n, GeomKind::kSquareZ);
  if (with_queries) {
    const index_t q =
        std::min<index_t>(32, rng.uniform(1, std::max<index_t>(in.n, 1)));
    in.perm.reserve(static_cast<size_t>(2 * q));
    for (index_t i = 0; i < 2 * q; ++i) {
      in.perm.push_back(rng.uniform(0, in.n - 1));
    }
  }
  return in;
}

bool valid_tree_case(const CaseInput& in) {
  if (in.n < 1 || in.n_vertices != in.n) return false;
  if (in.k < 1 || in.k > in.n) return false;
  if (static_cast<index_t>(in.keys.size()) != in.n) return false;
  if (in.perm.size() % 2 != 0 || in.perm.size() > 64) return false;
  for (const index_t x : in.perm) {
    if (x < 0 || x >= in.n) return false;
  }
  return tree::is_tree(tree_of(in));
}

/// The relabeling oracle's transform: rename every vertex by a salted
/// random permutation. Dense normalization must make this unobservable.
CaseInput relabel_tree_case(const CaseInput& in, std::uint64_t salt) {
  Rng rng(salt);
  const std::vector<index_t> sigma = gen_permutation(rng, in.n);
  CaseInput out = in;
  for (auto& [u, v] : out.edges) {
    u = sigma[static_cast<size_t>(u)];
    v = sigma[static_cast<size_t>(v)];
  }
  out.k = sigma[static_cast<size_t>(in.k - 1)] + 1;
  for (index_t v = 0; v < in.n; ++v) {
    out.keys[static_cast<size_t>(sigma[static_cast<size_t>(v)])] =
        in.keys[static_cast<size_t>(v)];
  }
  for (auto& x : out.perm) x = sigma[static_cast<size_t>(x)];
  return out;
}

/// Shrinker repair: whatever the shrinker left in `edges` becomes a tree
/// again — labels are first-appearance compacted, cycle edges dropped,
/// and the remaining forest chained into one component.
void rebuild_tree_case(CaseInput& in) {
  std::unordered_map<index_t, index_t> remap;
  std::vector<std::pair<index_t, index_t>> edges;
  for (const auto& [u, v] : in.edges) {
    if (u < 0 || v < 0 || u == v) continue;
    auto id = [&](index_t x) {
      return remap.try_emplace(x, static_cast<index_t>(remap.size()))
          .first->second;
    };
    const index_t du = id(u);
    const index_t dv = id(v);
    edges.emplace_back(du, dv);
  }
  const index_t n = std::max<index_t>(static_cast<index_t>(remap.size()), 1);
  std::vector<index_t> uf(static_cast<size_t>(n));
  std::iota(uf.begin(), uf.end(), index_t{0});
  auto find = [&](index_t v) {
    while (uf[static_cast<size_t>(v)] != v) {
      uf[static_cast<size_t>(v)] =
          uf[static_cast<size_t>(uf[static_cast<size_t>(v)])];
      v = uf[static_cast<size_t>(v)];
    }
    return v;
  };
  std::vector<std::pair<index_t, index_t>> kept;
  for (const auto& [u, v] : edges) {
    const index_t ru = find(u);
    const index_t rv = find(v);
    if (ru == rv) continue;  // would close a cycle
    uf[static_cast<size_t>(ru)] = rv;
    kept.emplace_back(u, v);
  }
  index_t prev = -1;
  for (index_t v = 0; v < n; ++v) {
    if (find(v) != v) continue;
    if (prev >= 0) {
      kept.emplace_back(prev, v);
      uf[static_cast<size_t>(find(prev))] = v;
    }
    prev = v;
  }
  in.n = n;
  in.n_vertices = n;
  in.edges = std::move(kept);
  in.k = std::clamp<index_t>(in.k, 1, n);
  in.keys.resize(static_cast<size_t>(n), 0);
  if (in.perm.size() % 2 != 0) in.perm.pop_back();
  if (in.perm.size() > 64) in.perm.resize(64);
  for (auto& x : in.perm) x = ((x % n) + n) % n;
  if (in.tree_shape == TreeShape::kNone) {
    in.tree_shape = TreeShape::kRandomPrufer;
  }
  in.geom = canonical_geometry(GeomKind::kSquareZ, n);
}

/// Shared instance parameters of the tree budgets.
struct TreeDims {
  double s;   ///< arc count 2(n-1), floored at 1
  double sd;  ///< arc square side
  double lg;  ///< log2ceil(s) + 2
};

[[nodiscard]] TreeDims tree_dims(index_t n) {
  const index_t arcs = std::max<index_t>(2 * (n - 1), 1);
  return TreeDims{static_cast<double>(arcs),
                  static_cast<double>(square_side_for(arcs)),
                  log2ceil(arcs) + 2};
}

using TreeRun = std::function<void(Machine&, const CaseInput&,
                                   const tree::Tree&, const tree::DenseTree&,
                                   CaseOutcome&)>;

/// Assembles a tree property from the shared generator, validator, relabel
/// and rebuild. `run` gets the outcome with its size set, the labeled tree
/// and its dense normalization.
Property tree_property(std::string name, index_t max_n, bool with_queries,
                       TreeRun run) {
  Property p;
  p.name = std::move(name);
  p.min_n = 1;
  p.max_n = max_n;
  p.generate = [max_n, with_queries](Rng& rng, index_t n) {
    return gen_tree_case(rng, n, max_n, with_queries);
  };
  p.valid = valid_tree_case;
  p.relabel = relabel_tree_case;
  p.rebuild = rebuild_tree_case;
  p.run = [run = std::move(run)](Machine& m, const CaseInput& in) {
    CaseOutcome out;
    out.size = in.n;
    const tree::Tree t = tree_of(in);
    run(m, in, t, tree::normalize(t), out);
    return out;
  };
  return p;
}

Property make_euler_tour() {
  return tree_property(
      "euler_tour", 96, /*with_queries=*/false,
      [](Machine& m, const CaseInput& in, const tree::Tree&,
         const tree::DenseTree& dt, CaseOutcome& out) {
        const tree::EulerTour tour = tree::euler_tour(m, dt, in.geom.origin());
        const tree::HostTour want = tree::host_euler_tour(dt);
        if (!expect_equal(out, "euler_tour parent mismatch", tour.parent,
                          want.parent) ||
            !expect_equal(out, "euler_tour depth mismatch", tour.depth,
                          want.depth) ||
            !expect_equal(out, "euler_tour first mismatch", tour.first,
                          want.first) ||
            !expect_equal(out, "euler_tour last mismatch", tour.last,
                          want.last)) {
          return;
        }
        // One arc mergesort (s^{3/2}) plus R Wyllie rounds, each a request
        // + reply batch of up to s messages across the arc square (s^{3/2}
        // per round worst case); scans and hand-offs are O(s lg).
        const auto [s, sd, lg] = tree_dims(in.n);
        const auto rounds = static_cast<double>(tour.rank_rounds);
        out.budgets = {
            {"energy", std::pow(s, 1.5) * (rounds + 4) + 4 * s * lg + 64},
            {"depth", lg * lg * lg + (rounds + 4) * lg + 32},
            {"distance", (rounds + 8) * (4 * sd + 8) + 64}};
      });
}

Property make_tree_reduce() {
  return tree_property(
      "tree_reduce", 96, /*with_queries=*/false,
      [](Machine& m, const CaseInput& in, const tree::Tree& t,
         const tree::DenseTree& dt, CaseOutcome& out) {
        const tree::EulerTour tour = tree::euler_tour(m, dt, in.geom.origin());
        const std::vector<std::int64_t> vals = dense_values(dt, in.keys);
        const auto neg = [](std::int64_t v) { return -v; };
        const std::vector<std::int64_t> down =
            tree::rootfix(m, tour, vals, Plus{}, neg);
        const std::vector<std::int64_t> up =
            tree::leaffix(m, tour, vals, Plus{}, neg, std::int64_t{0});
        const std::vector<std::int64_t> want_down =
            tree::host_rootfix(t, in.keys, Plus{});
        const std::vector<std::int64_t> want_up =
            tree::host_leaffix(t, in.keys, Plus{});
        if (!expect_equal(out, "rootfix mismatch", to_label_order(dt, down),
                          want_down) ||
            !expect_equal(out, "leaffix mismatch", to_label_order(dt, up),
                          want_up)) {
          return;
        }
        // Tour budget plus two fan/scan/deliver passes, each O(s^{3/2})
        // energy (s messages across the arc square) and O(lg) depth.
        const auto [s, sd, lg] = tree_dims(in.n);
        const auto rounds = static_cast<double>(tour.rank_rounds);
        out.budgets = {
            {"energy", std::pow(s, 1.5) * (rounds + 8) + 8 * s * lg + 64},
            {"depth", lg * lg * lg + (rounds + 8) * lg + 48},
            {"distance", (rounds + 12) * (4 * sd + 8) + 64}};
      });
}

Property make_tree_contract() {
  return tree_property(
      "tree_contract", 64, /*with_queries=*/false,
      [](Machine& m, const CaseInput& in, const tree::Tree&,
         const tree::DenseTree& dt, CaseOutcome& out) {
        const std::vector<std::int64_t> vals = dense_values(dt, in.keys);
        const tree::ContractResult<std::int64_t> result = tree::tree_contract(
            m, dt, vals, Plus{}, in.algo_seed, in.geom.origin());
        const std::int64_t want =
            std::accumulate(in.keys.begin(), in.keys.end(), std::int64_t{0});
        if (result.value != want) {
          std::ostringstream os;
          os << "tree_contract total mismatch: got " << result.value
             << " want " << want << " (survivor " << result.survivor << ", "
             << result.rounds << " rounds)";
          fail(out, os.str());
          return;
        }
        if (result.survivor < 0 || result.survivor >= in.n) {
          fail(out, "tree_contract survivor out of range");
          return;
        }
        // Per round: three segmented scans over the full arc array plus
        // the degree/fold batches — O(s^{3/2}) energy and O(lg) depth
        // each, C rounds total; the setup sort adds one s^{3/2}.
        const auto [s, sd, lg] = tree_dims(in.n);
        const auto c = static_cast<double>(result.rounds);
        out.budgets = {
            {"energy", std::pow(s, 1.5) * (c + 4) + (c + 4) * s * lg + 64},
            {"depth", lg * lg * lg + (c + 4) * (4 * lg + 8) + 48},
            {"distance", (c + 4) * (6 * sd + 12) + 64}};
      });
}

Property make_tree_lca() {
  return tree_property(
      "tree_lca", 48, /*with_queries=*/true,
      [](Machine& m, const CaseInput& in, const tree::Tree& t,
         const tree::DenseTree& dt, CaseOutcome& out) {
        const tree::EulerTour tour = tree::euler_tour(m, dt, in.geom.origin());
        const std::vector<std::pair<index_t, index_t>> label_qs =
            queries_of(in);
        std::vector<std::pair<index_t, index_t>> dense_qs;
        dense_qs.reserve(label_qs.size());
        for (const auto& [a, b] : label_qs) {
          dense_qs.emplace_back(dt.to_dense[static_cast<size_t>(a)],
                                dt.to_dense[static_cast<size_t>(b)]);
        }
        const tree::LcaResult result =
            tree::lca(m, dt, tour, dense_qs, in.geom.origin());
        std::vector<index_t> got;
        got.reserve(result.answers.size());
        for (const index_t d : result.answers) {
          got.push_back(dt.to_label[static_cast<size_t>(d)]);
        }
        if (!expect_equal(out, "tree_lca answers mismatch", got,
                          tree::host_lca(t, label_qs))) {
          return;
        }
        // Tour + occurrence/RMQ build (O(s^{3/2})), two query mergesorts
        // (q^{3/2}), and W cover fetches in G groups of <= 16 serialized
        // steps.
        const auto [s, sd, lg] = tree_dims(in.n);
        const auto q = static_cast<double>(
            std::max<index_t>(static_cast<index_t>(label_qs.size()), 1));
        const double lq = log2ceil(static_cast<index_t>(q)) + 2;
        const double qsd =
            static_cast<double>(square_side_for(static_cast<index_t>(q)));
        const auto rounds = static_cast<double>(tour.rank_rounds);
        const auto walked = static_cast<double>(result.walk_nodes);
        const auto groups = static_cast<double>(result.groups);
        const auto len = static_cast<double>(result.max_len);
        out.budgets = {
            {"energy", std::pow(s, 1.5) * (rounds + 6) + 4 * s * lg +
                           std::pow(q, 1.5) * (lq + 4) +
                           (q + walked) * (8 * sd + 2 * qsd + 16) + 64},
            {"depth", lg * lg * lg + (rounds + 6) * lg + lq * lq * lq +
                          groups * (len + 4) * 4 + 48},
            {"distance", (rounds + 8) * (4 * sd + 8) + lq * (4 * qsd + 8) +
                             groups * (len + 4) * (12 * sd + 16) + 64}};
      });
}

}  // namespace

void append_tree_properties(std::vector<Property>& out) {
  out.push_back(make_euler_tour());
  out.push_back(make_tree_reduce());
  out.push_back(make_tree_contract());
  out.push_back(make_tree_lca());
}

}  // namespace scm::testing
