// Tests of the cost-accounting Machine: message charging, critical-path
// clocks, phase attribution.
#include "spatial/machine.hpp"

#include "core/scm.hpp"

#include <gtest/gtest.h>

#include <string>

namespace scm {
namespace {

TEST(Machine, SendChargesManhattanDistance) {
  Machine m;
  const Clock arrival = m.send({0, 0}, {3, 4}, Clock{});
  EXPECT_EQ(m.metrics().energy, 7);
  EXPECT_EQ(m.metrics().messages, 1);
  EXPECT_EQ(arrival.depth, 1);
  EXPECT_EQ(arrival.distance, 7);
}

TEST(Machine, ZeroLengthSendIsFree) {
  Machine m;
  const Clock c{5, 9};
  const Clock arrival = m.send({2, 2}, {2, 2}, c);
  EXPECT_EQ(arrival, c);
  EXPECT_EQ(m.metrics().energy, 0);
  EXPECT_EQ(m.metrics().messages, 0);
}

TEST(Machine, ClocksChainAlongDependentMessages) {
  Machine m;
  Clock c = m.send({0, 0}, {0, 5}, Clock{});
  c = m.send({0, 5}, {5, 5}, c);
  EXPECT_EQ(c.depth, 2);
  EXPECT_EQ(c.distance, 10);
  EXPECT_EQ(m.metrics().depth(), 2);
  EXPECT_EQ(m.metrics().distance(), 10);
}

TEST(Machine, IndependentMessagesDoNotStackDepth) {
  Machine m;
  for (int i = 0; i < 10; ++i) {
    m.send({0, 0}, {0, 1}, Clock{});
  }
  EXPECT_EQ(m.metrics().depth(), 1);
  EXPECT_EQ(m.metrics().energy, 10);
}

TEST(Clock, JoinTakesComponentwiseMax) {
  const Clock a{3, 100};
  const Clock b{7, 20};
  const Clock j = Clock::join(a, b);
  EXPECT_EQ(j.depth, 7);
  EXPECT_EQ(j.distance, 100);
  EXPECT_EQ(Clock::join({a, b, Clock{9, 5}}).depth, 9);
}

TEST(Machine, ObserveUpdatesMaxClock) {
  Machine m;
  m.observe(Clock{4, 40});
  m.observe(Clock{2, 90});
  EXPECT_EQ(m.metrics().depth(), 4);
  EXPECT_EQ(m.metrics().distance(), 90);
}

TEST(Machine, ResetClearsCounters) {
  Machine m;
  m.send({0, 0}, {1, 1}, Clock{});
  m.op(3);
  m.reset();
  EXPECT_EQ(m.metrics().energy, 0);
  EXPECT_EQ(m.metrics().messages, 0);
  EXPECT_EQ(m.metrics().local_ops, 0);
  EXPECT_EQ(m.metrics().depth(), 0);
  EXPECT_TRUE(m.phases().empty());
}

TEST(Machine, PhasesAttributeCosts) {
  Machine m;
  {
    Machine::PhaseScope outer(m, "outer");
    m.send({0, 0}, {0, 2}, Clock{});
    {
      Machine::PhaseScope inner(m, "inner");
      m.send({0, 0}, {0, 3}, Clock{});
    }
  }
  m.send({0, 0}, {0, 4}, Clock{});
  EXPECT_EQ(m.phase("outer").energy, 5);
  EXPECT_EQ(m.phase("inner").energy, 3);
  EXPECT_EQ(m.metrics().energy, 9);
  EXPECT_EQ(m.phase("nonexistent").energy, 0);
}

TEST(Machine, RecursivePhaseNamesCountOnce) {
  Machine m;
  {
    Machine::PhaseScope a(m, "rec");
    {
      Machine::PhaseScope b(m, "rec");
      m.send({0, 0}, {0, 2}, Clock{});
    }
  }
  EXPECT_EQ(m.phase("rec").energy, 2);
}

TEST(Metrics, SinceSubtractsAdditiveCounters) {
  Machine m;
  m.send({0, 0}, {0, 2}, Clock{});
  const Metrics before = m.metrics();
  m.send({0, 0}, {0, 5}, Clock{});
  m.op(2);
  const Metrics delta = m.metrics().since(before);
  EXPECT_EQ(delta.energy, 5);
  EXPECT_EQ(delta.messages, 1);
  EXPECT_EQ(delta.local_ops, 2);
}

TEST(MachinePhases, SnapshotReflectsEveryMutation) {
  Machine m;
  {
    const Machine::PhaseScope p(m, "alpha");
    m.send({0, 0}, {0, 3}, Clock{});
  }
  const auto first = m.phases();
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(first.at("alpha").energy, 3);
  // Each call builds a fresh snapshot, so charging under an active phase
  // shows in the next one.
  {
    const Machine::PhaseScope p(m, "alpha");
    m.send({0, 0}, {0, 2}, Clock{});
  }
  const auto second = m.phases();
  EXPECT_EQ(second.at("alpha").energy, 5);
  EXPECT_EQ(first.at("alpha").energy, 3);  // an earlier snapshot stays put
  {
    const Machine::PhaseScope p(m, "beta");
    m.op(4);
  }
  EXPECT_EQ(m.phases().size(), 2u);
  EXPECT_EQ(m.phases().at("beta").local_ops, 4);
  m.reset();
  EXPECT_TRUE(m.phases().empty());
}

TEST(MachinePhases, CostReportUnchangedByInterleavedPhaseQueries) {
  const auto run = [](bool query_between_charges) {
    Machine m;
    {
      const Machine::PhaseScope p(m, "report-a");
      m.send({0, 0}, {4, 4}, Clock{});
      if (query_between_charges) (void)m.phases();
      m.send({1, 1}, {2, 7}, Clock{});
    }
    if (query_between_charges) (void)m.phases();
    {
      const Machine::PhaseScope p(m, "report-b");
      m.op(3);
    }
    return cost_report(m);
  };
  const std::string plain = run(false);
  const std::string queried = run(true);
  EXPECT_FALSE(plain.empty());
  // phases() first flushes the pending delta into the active phases, so a
  // query between charges changes when the per-phase records are written;
  // it must not change a byte of the report.
  EXPECT_EQ(plain, queried);
}

}  // namespace
}  // namespace scm
