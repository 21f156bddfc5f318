#include "workloads.hpp"

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/bitonic.hpp"
#include "spatial/grid_array.hpp"
#include "tree/contraction.hpp"
#include "tree/euler.hpp"
#include "tree/lca.hpp"
#include "tree/reductions.hpp"
#include "tree/tree.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>

namespace perfbench {

using scm::index_t;

std::vector<std::pair<std::int64_t, std::int64_t>> pruefer_tree(
    Rng& rng, std::int64_t n) {
  std::vector<std::int64_t> seq(static_cast<std::size_t>(n - 2));
  for (auto& x : seq) x = rng.below(n);
  std::vector<std::int64_t> degree(static_cast<std::size_t>(n), 1);
  for (const std::int64_t x : seq) ++degree[static_cast<std::size_t>(x)];
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>>
      leaves;
  for (std::int64_t v = 0; v < n; ++v) {
    if (degree[static_cast<std::size_t>(v)] == 1) leaves.push(v);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(n - 1));
  for (const std::int64_t x : seq) {
    const std::int64_t leaf = leaves.top();
    leaves.pop();
    edges.emplace_back(leaf, x);
    if (--degree[static_cast<std::size_t>(x)] == 1) leaves.push(x);
  }
  const std::int64_t u = leaves.top();
  leaves.pop();
  edges.emplace_back(u, leaves.top());
  return edges;
}

namespace {

/// bitonic_sort on random doubles laid out row-major on a square: every
/// compare-exchange round is one send_bulk batch of n entries.
class BitonicWorkload final : public Workload {
 public:
  static constexpr index_t kN = 8192;  // batches >= min_parallel_batch

  [[nodiscard]] const char* name() const override { return "bitonic"; }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    keys_.resize(static_cast<std::size_t>(kN));
    for (double& k : keys_) k = rng.real();
  }

  void prepare_oracle() override {
    want_ = keys_;
    std::sort(want_.begin(), want_.end());
  }

  void run(scm::Machine& m) override {
    auto a = scm::GridArray<double>::from_values_square({0, 0}, keys_,
                                                        scm::Layout::kRowMajor);
    scm::bitonic_sort(m, a, std::less<double>{});
    got_ = a.values();
  }

  [[nodiscard]] bool check() const override { return got_ == want_; }

 private:
  std::vector<double> keys_;
  std::vector<double> want_;
  std::vector<double> got_;
};

/// Inclusive Z-order scan under Plus on integer keys: all scalar,
/// dependent Machine::send calls.
class ScanWorkload final : public Workload {
 public:
  static constexpr index_t kN = index_t{1} << 14;

  [[nodiscard]] const char* name() const override { return "scan"; }

  void setup(std::uint64_t seed) override {
    Rng rng(seed);
    keys_.resize(static_cast<std::size_t>(kN));
    for (std::int64_t& k : keys_) k = rng.below(2001) - 1000;
  }

  void prepare_oracle() override {
    want_.resize(keys_.size());
    std::inclusive_scan(keys_.begin(), keys_.end(), want_.begin());
  }

  void run(scm::Machine& m) override {
    const auto a = scm::GridArray<std::int64_t>::from_values_square(
        {0, 0}, keys_, scm::Layout::kZOrder);
    got_ = scm::scan(m, a, scm::Plus{}).values();
  }

  [[nodiscard]] bool check() const override { return got_ == want_; }

 private:
  std::vector<std::int64_t> keys_;
  std::vector<std::int64_t> want_;
  std::vector<std::int64_t> got_;
};

/// The tree pipeline on one random Pruefer tree: euler_tour, rootfix and
/// leaffix on the tour, tree_contract, and lca with n/4 queries. The tree's
/// shape and the contraction salt come from a fixed seed, because a random
/// tree's height, and with it depth and distance, varies by several percent
/// from tree to tree. The run's seed renames the vertices and draws the
/// values and the queries.
class TreeWorkload final : public Workload {
 public:
  static constexpr index_t kN = 512;
  static constexpr std::uint64_t kShapeSeed = 1;

  [[nodiscard]] const char* name() const override { return "tree"; }

  void setup(std::uint64_t seed) override {
    Rng shape_rng(kShapeSeed);
    tree_.n = kN;
    tree_.edges = pruefer_tree(shape_rng, kN);
    tree_.root = shape_rng.below(kN);
    Rng rng(seed);
    relabel(rng);
    dense_ = scm::tree::normalize(tree_);
    values_.resize(static_cast<std::size_t>(kN));
    for (std::int64_t& v : values_) v = rng.below(101) - 50;
    dense_values_.resize(values_.size());
    for (index_t d = 0; d < kN; ++d) {
      dense_values_[static_cast<std::size_t>(d)] = values_[static_cast<
          std::size_t>(dense_.to_label[static_cast<std::size_t>(d)])];
    }
    queries_.resize(static_cast<std::size_t>(kN / 4));
    dense_queries_.resize(queries_.size());
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      queries_[i] = {rng.below(kN), rng.below(kN)};
      dense_queries_[i] = {
          dense_.to_dense[static_cast<std::size_t>(queries_[i].first)],
          dense_.to_dense[static_cast<std::size_t>(queries_[i].second)]};
    }
    salt_ = shape_rng.next();
  }

  void prepare_oracle() override {
    want_rootfix_ = scm::tree::host_rootfix(tree_, values_, scm::Plus{});
    want_leaffix_ = scm::tree::host_leaffix(tree_, values_, scm::Plus{});
    want_lca_ = scm::tree::host_lca(tree_, queries_);
    want_sum_ = std::accumulate(values_.begin(), values_.end(),
                                std::int64_t{0});
  }

  void run(scm::Machine& m) override {
    const auto neg = [](std::int64_t v) { return -v; };
    const scm::tree::EulerTour tour = scm::tree::euler_tour(m, dense_, {0, 0});
    rootfix_ = scm::tree::rootfix(m, tour, dense_values_, scm::Plus{}, neg);
    leaffix_ = scm::tree::leaffix(m, tour, dense_values_, scm::Plus{}, neg,
                                  std::int64_t{0});
    sum_ = scm::tree::tree_contract(m, dense_, dense_values_, scm::Plus{},
                                    salt_, {0, 0})
               .value;
    lca_ = scm::tree::lca(m, dense_, tour, dense_queries_, {0, 0}).answers;
  }

  [[nodiscard]] bool check() const override {
    if (sum_ != want_sum_ || lca_.size() != want_lca_.size()) return false;
    for (index_t d = 0; d < kN; ++d) {
      const auto v =
          static_cast<std::size_t>(dense_.to_label[static_cast<std::size_t>(d)]);
      if (rootfix_[static_cast<std::size_t>(d)] != want_rootfix_[v] ||
          leaffix_[static_cast<std::size_t>(d)] != want_leaffix_[v]) {
        return false;
      }
    }
    for (std::size_t i = 0; i < lca_.size(); ++i) {
      if (dense_.to_label[static_cast<std::size_t>(lca_[i])] != want_lca_[i]) {
        return false;
      }
    }
    return true;
  }

 private:
  /// Renames the vertices by a random permutation from `rng`.
  void relabel(Rng& rng) {
    std::vector<index_t> label(static_cast<std::size_t>(kN));
    std::iota(label.begin(), label.end(), index_t{0});
    for (index_t i = kN - 1; i > 0; --i) {
      std::swap(label[static_cast<std::size_t>(i)],
                label[static_cast<std::size_t>(rng.below(i + 1))]);
    }
    const auto at = [&](index_t v) { return label[static_cast<std::size_t>(v)]; };
    for (auto& [u, v] : tree_.edges) {
      u = at(u);
      v = at(v);
    }
    tree_.root = at(tree_.root);
  }

  scm::tree::Tree tree_;
  scm::tree::DenseTree dense_;
  std::vector<std::int64_t> values_;
  std::vector<std::int64_t> dense_values_;
  std::vector<std::pair<index_t, index_t>> queries_;
  std::vector<std::pair<index_t, index_t>> dense_queries_;
  std::uint64_t salt_{0};

  std::vector<std::int64_t> want_rootfix_;
  std::vector<std::int64_t> want_leaffix_;
  std::vector<index_t> want_lca_;
  std::int64_t want_sum_{0};

  std::vector<std::int64_t> rootfix_;
  std::vector<std::int64_t> leaffix_;
  std::int64_t sum_{0};
  std::vector<index_t> lca_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "bitonic") return std::make_unique<BitonicWorkload>();
  if (name == "scan") return std::make_unique<ScanWorkload>();
  if (name == "tree") return std::make_unique<TreeWorkload>();
  return nullptr;
}

}  // namespace perfbench
