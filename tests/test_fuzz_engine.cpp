// Unit tests of the property-fuzzing engine itself: certificate
// round-trips and check semantics, replay-token parsing, deterministic
// case generation, shrinker minimization, an injected cost regression
// caught by an exact certificate, the shared functional oracles' failure
// texts, and the CaseInput dump that failure reports print.
#include "testing/bounds.hpp"
#include "testing/gen.hpp"
#include "testing/oracles.hpp"
#include "testing/property.hpp"
#include "testing/runner.hpp"
#include "testing/shrink.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace scm::testing {
namespace {

TEST(FuzzBounds, SerializeParseRoundTrip) {
  BoundSet set;
  set.set_slack(1.5);
  set.record_ratio("bitonic_sort", "energy", 1.0, 2);
  set.record_ratio("mergesort2d", "energy", 20.25, 2);
  set.record_ratio("mergesort2d", "depth", 0.75, 2);
  const std::string text = set.serialize();
  const std::optional<BoundSet> parsed = BoundSet::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->slack(), 1.5);
  ASSERT_EQ(parsed->certificates().size(), 3u);
  EXPECT_EQ(parsed->certificates(), set.certificates());
  // Serialization is stable: a second round-trip is byte-identical.
  EXPECT_EQ(parsed->serialize(), text);
}

TEST(FuzzBounds, RejectsWrongVersionAndGarbage) {
  EXPECT_FALSE(BoundSet::parse("{\"version\": 999, \"slack\": 1.25, "
                               "\"certificates\": []}")
                   .has_value());
  EXPECT_FALSE(BoundSet::parse("not json").has_value());
  EXPECT_FALSE(BoundSet::parse("{}").has_value());
}

TEST(FuzzBounds, CheckSemantics) {
  BoundSet set;  // slack 1.25
  set.record_ratio("p", "energy", 2.0, 4);
  // Within certificate * slack.
  EXPECT_TRUE(set.check("p", "energy", 200.0, 100.0, 8));
  EXPECT_TRUE(set.check("p", "energy", 250.0, 100.0, 8));
  // Beyond it (headroom is negligible at this scale).
  EXPECT_FALSE(set.check("p", "energy", 260.0, 100.0, 8));
  // Instances below min_n are exempt.
  EXPECT_TRUE(set.check("p", "energy", 9999.0, 100.0, 3));
  // Unknown (property, metric) pairs are not checked.
  EXPECT_TRUE(set.check("q", "energy", 9999.0, 100.0, 8));
  // A zero budget demands exactly zero cost, headroom or not.
  EXPECT_TRUE(set.check("p", "energy", 0.0, 0.0, 8));
  EXPECT_FALSE(set.check("p", "energy", 1.0, 0.0, 8));
  // The absolute headroom absorbs whole-step jitter on tiny budgets.
  EXPECT_TRUE(set.check("p", "energy", 2.5 + BoundSet::kCheckHeadroom - 0.5,
                        1.0, 8));
}

TEST(FuzzBounds, InjectedCostRegressionIsCaught) {
  // bitonic_sort's energy certificate is exact (constant 1 against the
  // host replay of the network), so a simulated doubling of routing cost
  // must violate it while the true cost passes.
  const Property* prop = find_property("bitonic_sort");
  ASSERT_NE(prop, nullptr);
  Rng rng(derive_case_seed(11, 0));
  const CaseInput in = prop->generate(rng, 32);
  Machine m;
  const CaseOutcome outcome = prop->run(m, in);
  ASSERT_TRUE(outcome.ok);
  const double budget = outcome.budget("energy");
  ASSERT_GT(budget, 0.0);
  const auto measured = static_cast<double>(m.metrics().energy);
  EXPECT_LE(measured, budget);

  BoundSet set;
  set.record_ratio("bitonic_sort", "energy", 1.0, 2);
  EXPECT_TRUE(
      set.check("bitonic_sort", "energy", measured, budget, outcome.size));
  EXPECT_FALSE(set.check("bitonic_sort", "energy", 2.0 * measured, budget,
                         outcome.size));
}

TEST(FuzzOracles, EqualityReportsSizeMismatchAndFirstDifference) {
  CaseOutcome same;
  EXPECT_TRUE(expect_equal(same, "components labels mismatch",
                           std::vector<index_t>{0, 1}, {0, 1}));
  EXPECT_TRUE(same.ok);
  EXPECT_TRUE(same.failure.empty());

  CaseOutcome sized;
  EXPECT_FALSE(expect_equal(sized, "spmv product mismatch",
                            std::vector<double>{1, 2}, {1, 2, 3}));
  EXPECT_FALSE(sized.ok);
  EXPECT_EQ(sized.failure, "spmv product mismatch: size 2 want 3");

  CaseOutcome differs;
  EXPECT_FALSE(expect_equal(differs, "components labels mismatch",
                            std::vector<index_t>{0, 1, 1, 3}, {0, 1, 2, 2}));
  EXPECT_FALSE(differs.ok);
  EXPECT_EQ(differs.failure,
            "components labels mismatch: index 2: got 1 want 2");
}

TEST(FuzzOracles, SortOracleRejectsUnsortedOrLostOutput) {
  CaseOutcome sorted;
  EXPECT_TRUE(expect_sorted(sorted, "bitonic_sort output not sorted",
                            {-1, 3, 3}, {3, -1, 3}));
  EXPECT_TRUE(sorted.ok);

  CaseOutcome unsorted;
  EXPECT_FALSE(expect_sorted(unsorted, "bitonic_sort output not sorted",
                             {3, -1, 5}, {5, 3, -1}));
  EXPECT_FALSE(unsorted.ok);
  EXPECT_EQ(unsorted.failure,
            "bitonic_sort output not sorted: index 0: got 3 want -1");

  CaseOutcome lost;
  EXPECT_FALSE(expect_sorted(lost, "mergesort2d output not sorted", {-1, 3},
                             {3, -1, 5}));
  EXPECT_EQ(lost.failure, "mergesort2d output not sorted: size 2 want 3");
}

TEST(FuzzOracles, PrefixOracleRejectsWrongInclusiveAndExclusiveSums) {
  const std::vector<std::int64_t> keys{4, -1, 2};

  CaseOutcome inclusive;
  EXPECT_TRUE(expect_prefix(inclusive, "scan prefix mismatch", {4, 3, 5},
                            keys, /*exclusive=*/false));
  EXPECT_TRUE(inclusive.ok);
  EXPECT_FALSE(expect_prefix(inclusive, "scan prefix mismatch", {4, 3, 6},
                             keys, /*exclusive=*/false));
  EXPECT_FALSE(inclusive.ok);
  EXPECT_EQ(inclusive.failure, "scan prefix mismatch: index 2: got 6 want 5");

  CaseOutcome exclusive;
  EXPECT_TRUE(expect_prefix(exclusive, "scan prefix mismatch", {0, 4, 3},
                            keys, /*exclusive=*/true));
  EXPECT_TRUE(exclusive.ok);
  // The inclusive sums are the wrong answer for an exclusive scan.
  EXPECT_FALSE(expect_prefix(exclusive, "scan prefix mismatch", {4, 3, 5},
                             keys, /*exclusive=*/true));
  EXPECT_FALSE(exclusive.ok);
  EXPECT_EQ(exclusive.failure, "scan prefix mismatch: index 0: got 4 want 0");
}

TEST(FuzzCaseInput, StrDumpsElementsOfSmallInstancesOnly) {
  CaseInput small;
  small.n = 3;
  small.keys = {5, -2, 7};
  small.perm = {2, 0, 1};
  small.flags = {1, 0, 1};
  small.k = 2;
  small.algo_seed = 9;
  small.geom = canonical_geometry(GeomKind::kSquareZ, 3);
  small.shape = KeyShape::kReversed;
  small.rows = 2;
  small.cols = 3;
  small.triples = {Triple{0, 1, 1.5}, Triple{1, 2, -3.0}};
  small.n_vertices = 3;
  small.edges = {{0, 1}, {1, 2}};
  small.pram_steps = 1;
  small.tree_shape = TreeShape::kPath;
  EXPECT_EQ(small.str(),
            "n=3 shape=reversed geom=square-z region=[0,0 2x2] z-order k=2 "
            "algo_seed=9 matrix=2x3 nnz=2 vertices=3 edges=2 pram_steps=1 "
            "tree=path keys=[5,-2,7] perm=[2,0,1] flags=[1,0,1] "
            "triples=[(0,1,1.5) (1,2,-3)] edges=[(0,1) (1,2)]");

  // Past 16 elements a list is summarized by its size; the triples and
  // edges are gated on their own counts, not on n.
  CaseInput big;
  big.n = 17;
  for (index_t i = 0; i < 17; ++i) {
    big.keys.push_back(i - 8);
    big.perm.push_back(16 - i);
    big.flags.push_back(static_cast<char>(i % 2));
    big.edges.emplace_back(i, i + 1);
  }
  big.geom = canonical_geometry(GeomKind::kLine, 17);
  big.rows = 17;
  big.cols = 17;
  big.triples = {Triple{3, 4, 0.25}};
  big.n_vertices = 18;
  EXPECT_EQ(big.str(),
            "n=17 shape=uniform geom=line region=[0,0 1x32] row-major "
            "matrix=17x17 nnz=1 vertices=18 edges=17 triples=[(3,4,0.25)]");
}

TEST(FuzzRunnerTokens, ParseTokenAcceptsSeedColonCase) {
  const auto parsed = FuzzRunner::parse_token("2026:17");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first, 2026u);
  EXPECT_EQ(parsed->second, 17);
}

TEST(FuzzRunnerTokens, ParseTokenRejectsMalformedInput) {
  for (const char* bad : {"", ":", "5:", ":3", "abc", "5:x", "x:5", "5:3:7",
                          "5:-3", "5: 3"}) {
    EXPECT_FALSE(FuzzRunner::parse_token(bad).has_value()) << bad;
  }
}

TEST(FuzzRunnerTokens, ReplayTokenBackwardCompatibleTwoFieldForm) {
  const auto parsed = FuzzRunner::parse_replay_token("2026:17");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 2026u);
  EXPECT_EQ(parsed->case_index, 17);
  EXPECT_FALSE(parsed->parallel.has_value());
}

TEST(FuzzRunnerTokens, ReplayTokenCarriesParallelEngineShape) {
  const auto parsed = FuzzRunner::parse_replay_token("2026:17:t4x32x64");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 2026u);
  EXPECT_EQ(parsed->case_index, 17);
  ASSERT_TRUE(parsed->parallel.has_value());
  EXPECT_EQ(parsed->parallel->threads, 4);
  EXPECT_EQ(parsed->parallel->tile_rows, 32);
  EXPECT_EQ(parsed->parallel->tile_cols, 64);
  // The replay must drive every batch through the engine.
  EXPECT_EQ(parsed->parallel->min_parallel_batch, 1);
}

TEST(FuzzRunnerTokens, ReplayTokenRejectsMalformedSuffixes) {
  for (const char* bad :
       {"5:3:", "5:3:t", "5:3:t4", "5:3:t4x8", "5:3:t4x8x", "5:3:tx8x8",
        "5:3:t0x8x8", "5:3:t4x-8x8", "5:3:t4x8x8x2", "5:3:u4x8x8",
        "5:3:t4x8x8 "}) {
    EXPECT_FALSE(FuzzRunner::parse_replay_token(bad).has_value()) << bad;
  }
}

TEST(FuzzGenerate, CaseGenerationIsDeterministic) {
  // The replay contract: (master seed, case index) fully determines the
  // instance, independent of prior generator use.
  for (const Property& prop : all_properties()) {
    Rng rng_a(derive_case_seed(2026, 7));
    Rng rng_b(derive_case_seed(2026, 7));
    const CaseInput a = prop.generate(rng_a, prop.min_n + 5);
    const CaseInput b = prop.generate(rng_b, prop.min_n + 5);
    EXPECT_EQ(a, b) << prop.name;
    // A different case index yields a different stream.
    Rng rng_c(derive_case_seed(2026, 8));
    (void)prop.generate(rng_c, prop.min_n + 5);
  }
}

TEST(FuzzReplay, ReplayIsRepeatable) {
  RunnerConfig config;
  config.shrink_attempts = 0;
  std::ostringstream log_a;
  std::ostringstream log_b;
  FuzzRunner runner_a(config, BoundSet{});
  FuzzRunner runner_b(config, BoundSet{});
  const auto a = runner_a.replay("2026:3", log_a);
  const auto b = runner_b.replay("2026:3", log_b);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->cases_run, 1);
  EXPECT_EQ(log_a.str(), log_b.str());
}

TEST(FuzzShrink, MinimizesAnInjectedComparatorBug) {
  // Simulate a functional bug that fires whenever the input mixes negative
  // and positive keys. The shrinker must reduce a large failing instance
  // to a near-minimal reproducer (the acceptance bar is n <= 8; the
  // two-element witness {negative, positive} is the true minimum).
  const Property* prop = find_property("mergesort2d");
  ASSERT_NE(prop, nullptr);
  CaseInput failing;
  failing.n = 40;
  failing.keys.resize(40);
  for (size_t i = 0; i < failing.keys.size(); ++i) {
    failing.keys[i] = static_cast<std::int64_t>(i) * 13 - 260;
  }
  failing.geom = canonical_geometry(GeomKind::kSquareZ, failing.n);
  ASSERT_TRUE(!prop->valid || prop->valid(failing));

  const auto has_mixed_signs = [](const CaseInput& in) {
    const bool neg = std::any_of(in.keys.begin(), in.keys.end(),
                                 [](std::int64_t k) { return k < 0; });
    const bool pos = std::any_of(in.keys.begin(), in.keys.end(),
                                 [](std::int64_t k) { return k > 0; });
    return neg && pos;
  };
  ASSERT_TRUE(has_mixed_signs(failing));

  ShrinkStats stats;
  const CaseInput shrunk =
      shrink_case(*prop, failing, has_mixed_signs, 400, &stats);
  EXPECT_TRUE(has_mixed_signs(shrunk));  // still failing
  EXPECT_LE(shrunk.n, 8);
  EXPECT_EQ(shrunk.n, 2);  // greedy halving + ddmin reach the minimum here
  EXPECT_GT(stats.attempts, 0);
}

TEST(FuzzSmokeSlice, MetamorphicAndAbCadencesPass) {
  // A miniature of the ctest smoke tier with the metamorphic and bulk-A/B
  // oracles on EVERY case (the full tier runs them on a cadence). No
  // certificates: functional, conformance, metamorphic, and A/B checks.
  RunnerConfig config;
  config.seed = 424242;
  config.cases = 32;
  config.max_n = 24;
  config.metamorphic_every = 1;
  config.ab_every = 1;
  std::ostringstream log;
  FuzzRunner runner(config, BoundSet{});
  const FuzzReport report = runner.run(log);
  EXPECT_TRUE(report.ok()) << log.str();
  EXPECT_EQ(report.cases_run, 32);
  EXPECT_EQ(report.cases_skipped, 0);
}

}  // namespace
}  // namespace scm::testing
