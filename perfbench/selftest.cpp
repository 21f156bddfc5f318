// Tests of the benchmark's own helpers: the event recorder and its two
// replays, the summary statistics, the speed probe, and the input
// generators.
#include "calibration.hpp"
#include "recorder.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "spatial/independence.hpp"
#include "spatial/machine.hpp"
#include "spatial/validate.hpp"
#include "tree/tree.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

using scm::Clock;
using scm::Coord;
using scm::Machine;
using scm::MessageEvent;

bool same_event(const MessageEvent& a, const MessageEvent& b) {
  return a.from == b.from && a.to == b.to && a.distance == b.distance &&
         a.payload == b.payload && a.arrival == b.arrival;
}

/// A tiny run touching every event kind: births (scalar and bulk), nested
/// phases, a scalar send, a free zero-length send, a bulk batch with a
/// zero-length entry, an empty-of-charge bulk batch, ops and deaths.
scm::Metrics fixture(Machine& m) {
  m.birth({0, 0}, Clock{});
  const std::vector<scm::BirthEvent> born{{{0, 1}, Clock{}},
                                          {{0, 2}, Clock{}}};
  m.birth_bulk(born);
  {
    Machine::PhaseScope outer(m, "selftest/outer");
    const Clock c = m.send({0, 0}, {2, 3}, Clock{});
    (void)m.send({2, 3}, {2, 3}, c);  // zero-length: free, unreported
    {
      Machine::PhaseScope inner(m, "selftest/inner");
      std::vector<MessageEvent> batch{{{0, 1}, {1, 1}, 0, Clock{}, Clock{}},
                                      {{0, 2}, {0, 2}, 0, Clock{}, Clock{}},
                                      {{2, 3}, {5, 0}, 0, c, Clock{}}};
      m.send_bulk(batch);
      std::vector<MessageEvent> idle{{{4, 4}, {4, 4}, 0, Clock{}, Clock{}}};
      m.send_bulk(idle);  // no charged entry: no event
      m.op_bulk(3);
    }
    m.op();
  }
  m.death({0, 0});
  const std::vector<Coord> dead{{1, 1}, {5, 0}};
  m.death_bulk(dead);
  return m.metrics();
}

TEST(Recorder, RoundTripReproducesMetricsAndStream) {
  Recorder rec;
  scm::Metrics live;
  {
    Machine m;
    m.set_trace(&rec);
    live = fixture(m);
  }
  const Stream& s = rec.stream();
  EXPECT_EQ(s.counts.scalar_sends, 1U);
  EXPECT_EQ(s.counts.bulk_batches, 1U);
  EXPECT_EQ(s.counts.bulk_entries, 2U);  // the zero-length entry is free
  EXPECT_EQ(s.counts.phase_enters, 2U);
  EXPECT_EQ(s.counts.resets, 0U);  // attached after construction
  // 2 for the scalar send; 1 each for 2 births, 1 bulk send, 2 ops,
  // 2 deaths and 4 phase transitions.
  EXPECT_EQ(s.counts.dispatches, 2U + 2U + 1U + 2U + 2U + 4U);
  ASSERT_EQ(s.messages.size(), 4U);
  EXPECT_EQ(s.messages[2].distance, 0);

  Stream copy = s;
  const scm::Metrics replayed = replay_machine(copy);
  EXPECT_EQ(replayed.energy, live.energy);
  EXPECT_EQ(replayed.messages, live.messages);
  EXPECT_EQ(replayed.depth(), live.depth());
  EXPECT_EQ(replayed.distance(), live.distance());
  EXPECT_EQ(replayed.local_ops, live.local_ops);
  for (std::size_t i = 0; i < s.messages.size(); ++i) {
    EXPECT_TRUE(same_event(copy.messages[i], s.messages[i])) << i;
  }

  Recorder again;
  replay_sink(s, again);
  const Stream& r = again.stream();
  EXPECT_EQ(r.counts, s.counts);
  ASSERT_EQ(r.events.size(), s.events.size());
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    EXPECT_EQ(r.events[i].kind, s.events[i].kind) << i;
    EXPECT_EQ(r.events[i].first, s.events[i].first) << i;
    EXPECT_EQ(r.events[i].count, s.events[i].count) << i;
  }
  ASSERT_EQ(r.messages.size(), s.messages.size());
  for (std::size_t i = 0; i < s.messages.size(); ++i) {
    EXPECT_TRUE(same_event(r.messages[i], s.messages[i])) << i;
  }
  ASSERT_EQ(r.births.size(), 3U);
  EXPECT_EQ(r.deaths, s.deaths);
}

TEST(Recorder, LeadingResetIsTheConstruction) {
  Recorder rec;
  Machine::set_global_trace(&rec);
  scm::Metrics live;
  {
    Machine m;
    live = fixture(m);
  }
  Machine::set_global_trace(nullptr);
  EXPECT_EQ(rec.stream().counts.resets, 1U);
  EXPECT_EQ(rec.stream().events.front().kind, EventKind::kReset);
  Stream copy = rec.stream();
  EXPECT_EQ(replay_machine(copy).energy, live.energy);

  scm::ConformanceChecker::Config cfg;
  cfg.strict = false;
  scm::ConformanceChecker checker(cfg);
  replay_sink(rec.stream(), checker);
  checker.finish();
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(Recorder, ReplaysCarryTheUnorderedDeliveryExemption) {
  // Two entries fan in to one cell: legal only inside an exemption scope.
  auto run = [](Machine& m, bool exempt) {
    m.birth({0, 0}, Clock{});
    m.birth({0, 2}, Clock{});
    std::vector<MessageEvent> batch{{{0, 0}, {0, 1}, 0, Clock{}, Clock{}},
                                    {{0, 2}, {0, 1}, 0, Clock{}, Clock{}}};
    if (exempt) {
      scm::ScopedUnorderedDelivery scope("selftest fan-in");
      m.send_bulk(batch);
    } else {
      m.send_bulk(batch);
    }
  };
  scm::IndependenceChecker::Config cfg;
  cfg.strict = false;
  for (const bool exempt : {true, false}) {
    Recorder rec;
    {
      Machine m;
      m.set_trace(&rec);
      run(m, exempt);
    }
    EXPECT_EQ(rec.stream().events.back().unordered != nullptr, exempt);
    scm::IndependenceChecker checker(cfg);
    replay_sink(rec.stream(), checker);
    EXPECT_EQ(checker.report().ok(), exempt);
  }
}

TEST(Stats, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(101 - i);  // 100 .. 1
  EXPECT_EQ(percentile(xs, 50), 50.0);
  EXPECT_EQ(percentile(xs, 90), 90.0);
  EXPECT_EQ(percentile(xs, 99), 99.0);
  EXPECT_EQ(percentile(xs, 100), 100.0);
  EXPECT_EQ(percentile({7.0}, 95), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
}

TEST(Stats, FastMeanAveragesTheSmallestShare) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(101 - i);  // 100 .. 1
  EXPECT_EQ(fast_mean(xs, 0.1), 5.5);                     // 1 .. 10
  EXPECT_EQ(fast_mean(xs, 1.0), 50.5);
  EXPECT_EQ(fast_mean({9.0, 4.0, 7.0}, 0.1), 4.0);  // at least one value
  EXPECT_EQ(fast_mean(xs, 0.01, 3), 2.0);           // at least min_count
  EXPECT_EQ(fast_mean({9.0, 4.0}, 0.1, 3), 6.5);    // all, when fewer
  EXPECT_EQ(fast_mean({}, 0.1), 0.0);
}

TEST(Calibration, ProbeTimesAreShortAndPositive) {
  SpeedProbe probe;
  for (int i = 0; i < 5; ++i) {
    const double t = probe.time_once();
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 0.1);  // about a millisecond on any current core
  }
}

TEST(Stats, HighestPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
}

TEST(Inputs, PrueferTreesAreValidAndSeeded) {
  for (const std::int64_t n : {2, 3, 17, 1000}) {
    Rng a(n);
    Rng b(n);
    const auto edges = pruefer_tree(a, n);
    EXPECT_EQ(edges, pruefer_tree(b, n));
    EXPECT_TRUE(scm::tree::is_tree(scm::tree::Tree{n, edges, 0})) << n;
  }
  Rng c(1);
  Rng d(2);
  EXPECT_NE(pruefer_tree(c, 64), pruefer_tree(d, 64));
}

TEST(Inputs, EveryWorkloadIsNamed) {
  for (const char* name : {"bitonic", "scan", "tree"}) {
    const auto w = make_workload(name);
    ASSERT_NE(w, nullptr);
    EXPECT_STREQ(w->name(), name);
  }
  EXPECT_EQ(make_workload("sort"), nullptr);
}

}  // namespace
}  // namespace perfbench
