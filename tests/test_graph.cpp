// Tests of spatial connected components against a union-find reference.
#include "graph/components.hpp"

#include "spatial/machine.hpp"

#include <gtest/gtest.h>

#include <random>
#include <stdexcept>

namespace scm {
namespace {

using graph::ComponentsResult;
using graph::EdgeList;

void expect_same_partition(const std::vector<index_t>& got,
                           const std::vector<index_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  // Both label with the component's minimum vertex id, so they must match
  // exactly.
  EXPECT_EQ(got, want);
}

TEST(Components, EmptyGraphIsAllSingletons) {
  Machine m;
  EdgeList g{5, {}};
  const ComponentsResult r = graph::connected_components(m, g);
  EXPECT_EQ(r.components, 5);
  for (index_t v = 0; v < 5; ++v) EXPECT_EQ(r.label[static_cast<size_t>(v)], v);
}

TEST(Components, SingleEdge) {
  Machine m;
  EdgeList g{4, {{1, 3}}};
  const ComponentsResult r = graph::connected_components(m, g);
  EXPECT_EQ(r.components, 3);
  EXPECT_EQ(r.label[1], 1);
  EXPECT_EQ(r.label[3], 1);
}

TEST(Components, PathGraphPropagatesToTheMinimum) {
  Machine m;
  EdgeList g{10, {}};
  for (index_t v = 0; v + 1 < 10; ++v) g.edges.push_back({v, v + 1});
  const ComponentsResult r = graph::connected_components(m, g);
  EXPECT_EQ(r.components, 1);
  for (index_t v = 0; v < 10; ++v) EXPECT_EQ(r.label[static_cast<size_t>(v)], 0);
  EXPECT_GE(r.rounds, 5);  // label 0 travels the path's diameter
}

TEST(Components, TwoCliquesAndABridge) {
  Machine m;
  EdgeList g{12, {}};
  for (index_t a = 0; a < 5; ++a) {
    for (index_t b = a + 1; b < 5; ++b) g.edges.push_back({a, b});
  }
  for (index_t a = 6; a < 11; ++a) {
    for (index_t b = a + 1; b < 11; ++b) g.edges.push_back({a, b});
  }
  const ComponentsResult before = graph::connected_components(m, g);
  EXPECT_EQ(before.components, 4);  // clique, clique, vertex 5, vertex 11
  g.edges.push_back({4, 6});
  const ComponentsResult after = graph::connected_components(m, g);
  EXPECT_EQ(after.components, 3);
  EXPECT_EQ(after.label[10], 0);
}

TEST(Components, RandomGraphsMatchUnionFind) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const index_t n = 60 + trial * 20;
    EdgeList g{n, {}};
    std::uniform_int_distribution<index_t> pick(0, n - 1);
    const index_t m_edges = n;  // sparse: several components likely
    for (index_t e = 0; e < m_edges; ++e) {
      g.edges.push_back({pick(rng), pick(rng)});
    }
    Machine m;
    const ComponentsResult r = graph::connected_components(m, g);
    expect_same_partition(r.label, graph::reference_components(g));
  }
}

TEST(Components, SelfLoopsAndParallelEdges) {
  Machine m;
  EdgeList g{4, {{0, 0}, {1, 2}, {2, 1}, {1, 2}}};
  const ComponentsResult r = graph::connected_components(m, g);
  expect_same_partition(r.label, graph::reference_components(g));
  EXPECT_EQ(r.components, 3);
}

TEST(Components, CostsScaleWithRoundsTimesLinearWork) {
  // After the one-off sorts, each round is O(m + n sqrt m) energy; a
  // low-diameter graph needs few rounds.
  Machine m;
  std::mt19937_64 rng(9);
  const index_t n = 256;
  EdgeList g{n, {}};
  std::uniform_int_distribution<index_t> pick(0, n - 1);
  for (index_t e = 0; e < 4 * n; ++e) g.edges.push_back({pick(rng), pick(rng)});
  const ComponentsResult r = graph::connected_components(m, g);
  expect_same_partition(r.label, graph::reference_components(g));
  EXPECT_LE(r.rounds, 12);  // random graphs have O(log n) diameter
}

// Out-of-range input is refused in every build, before anything is
// charged.
void expect_rejected_without_charge(const EdgeList& g) {
  Machine m;
  EXPECT_THROW((void)graph::connected_components(m, g),
               std::invalid_argument);
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_TRUE(m.phases().empty());
}

TEST(Components, RejectsAnEndpointPastTheLabelArray) {
  expect_rejected_without_charge(EdgeList{3, {{0, 2}, {1, 40}}});
}

TEST(Components, RejectsAnEndpointThatWouldBeDroppedSilently) {
  expect_rejected_without_charge(EdgeList{3, {{0, 5}}});
}

TEST(Components, RejectsANegativeVertexCountOrEndpoint) {
  expect_rejected_without_charge(EdgeList{-1, {}});
  expect_rejected_without_charge(EdgeList{3, {{-1, 2}}});
}

}  // namespace
}  // namespace scm
