// Tests of the batch-independence analyzer: adversarial fixtures that
// deliberately race bulk-round batches and assert the checker reports
// exactly that conflict, negative fixtures proving the library's legal
// round shapes (exchange, shift, permutation) stay silent, the operator
// annotation machinery, the profiler's run-report export, and the fuzzer
// integration (an injected overlapping batch is caught as an
// "independence" finding, carries a replay token, and shrinks to the
// minimal witness). A seeded event stream also runs through the checker
// and a per-batch reference over ordered maps, whose reports must agree
// field for field.
#include "spatial/independence.hpp"

#include "collectives/operators.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/validate.hpp"
#include "testing/gen.hpp"
#include "testing/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace scm {
namespace {

IndependenceChecker::Config lenient() {
  IndependenceChecker::Config config;
  config.strict = false;
  return config;
}

// Two charged members delivering to {0, 9} from distinct sources.
std::vector<MessageEvent> overlapping_batch() {
  return {MessageEvent{{0, 0}, {0, 9}, 0, Clock{}, Clock{}},
          MessageEvent{{1, 0}, {0, 9}, 0, Clock{}, Clock{}}};
}

// --- Adversarial fixtures: one per conflict kind. -----------------------

TEST(IndependenceAdversarial, WriteWriteConflictIsFlagged) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "ww");
    std::vector<MessageEvent> batch = overlapping_batch();
    m.send_bulk(batch);
  }
  const IndependenceReport& report = checker.report();
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.count(ViolationKind::kWriteWriteConflict), 1);
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kWriteWriteConflict);
  EXPECT_EQ(v.phase, "ww");
  EXPECT_EQ(v.at, (Coord{0, 9}));
  EXPECT_NE(v.detail.find("same destination"), std::string::npos);
  // The offending batch itself is in the backtrace (pushed pre-analysis).
  ASSERT_EQ(v.backtrace.size(), 2u);
  EXPECT_EQ(v.backtrace.back().to, (Coord{0, 9}));
  EXPECT_EQ(report.per_phase.at("ww").conflicts, 1);
}

TEST(IndependenceAdversarial, ScopedUnorderedDeliveryExemptsFanIn) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "reduce");
    ScopedUnorderedDelivery order_free("test: declared order-free");
    EXPECT_TRUE(ScopedUnorderedDelivery::active());
    EXPECT_STREQ(ScopedUnorderedDelivery::reason(),
                 "test: declared order-free");
    std::vector<MessageEvent> batch = overlapping_batch();
    m.send_bulk(batch);
  }
  EXPECT_FALSE(ScopedUnorderedDelivery::active());
  EXPECT_EQ(ScopedUnorderedDelivery::reason(), nullptr);
  const IndependenceReport& report = checker.report();
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_EQ(report.exempted_batches, 1);
  EXPECT_EQ(report.per_phase.at("reduce").exempted_batches, 1);
  EXPECT_EQ(report.max_fan_in, 2);
}

TEST(IndependenceAdversarial, CommutativeDeliveryScopeExempts) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "sum");
    // Compiles only because Plus is annotated commutative via OpTraits.
    CommutativeDeliveryScope<Plus> order_free("test: + fan-in");
    std::vector<MessageEvent> batch = overlapping_batch();
    m.send_bulk(batch);
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
  EXPECT_EQ(checker.report().exempted_batches, 1);
}

TEST(IndependenceAdversarial, ReadWriteHazardOnRetiredCell) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "hazard");
    m.death({0, 5});  // the cell holds no value at batch start
    std::vector<MessageEvent> batch{
        MessageEvent{{0, 0}, {0, 5}, 0, Clock{}, Clock{}},   // write
        MessageEvent{{0, 5}, {0, 9}, 0, Clock{}, Clock{}}};  // read
    m.send_bulk(batch);
  }
  const IndependenceReport& report = checker.report();
  ASSERT_EQ(report.count(ViolationKind::kReadWriteHazard), 1);
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.at, (Coord{0, 5}));
  EXPECT_NE(v.detail.find("retired"), std::string::npos);
  // 1-in/1-out: the hub (aliasing) rule must NOT also fire.
  EXPECT_EQ(report.count(ViolationKind::kGatherScatterAliasing), 0);
}

TEST(IndependenceAdversarial, OccupiedCellMayBeSourceAndDestination) {
  // Synchronous-round semantics: a cell that already holds a value may be
  // both read and overwritten in one batch (exchange / shift rounds).
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "exchange");
    std::vector<MessageEvent> batch{
        MessageEvent{{0, 0}, {0, 1}, 0, Clock{}, Clock{}},
        MessageEvent{{0, 1}, {0, 0}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(IndependenceAdversarial, ArrivalRevivesARetiredCell) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "revive");
    m.death({0, 5});
    m.send({0, 0}, {0, 5}, Clock{});  // scalar arrival revives the cell
    std::vector<MessageEvent> batch{
        MessageEvent{{1, 0}, {0, 5}, 0, Clock{}, Clock{}},
        MessageEvent{{0, 5}, {0, 9}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(IndependenceAdversarial, BirthRevivesARetiredCell) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "rebirth");
    m.death({0, 5});
    m.birth({0, 5}, Clock{});
    std::vector<MessageEvent> batch{
        MessageEvent{{1, 0}, {0, 5}, 0, Clock{}, Clock{}},
        MessageEvent{{0, 5}, {0, 9}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(IndependenceAdversarial, PhaseBoundaryOpensAFreshEpoch) {
  // A death in one phase does not poison the next: epoch state (like the
  // conformance checker's residency epochs) resets at phase boundaries.
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "retiring");
    m.death({0, 5});
  }
  {
    Machine::PhaseScope scope(m, "next-round");
    std::vector<MessageEvent> batch{
        MessageEvent{{1, 0}, {0, 5}, 0, Clock{}, Clock{}},
        MessageEvent{{0, 5}, {0, 9}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(IndependenceAdversarial, GatherScatterAliasingFiresEvenWhenExempt) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "fused");
    // An exemption waives delivery *order*, not round fusion: the hub
    // cannot relay a value before the round delivering it ends.
    ScopedUnorderedDelivery order_free("test: fan-in declared order-free");
    std::vector<MessageEvent> batch{
        MessageEvent{{0, 0}, {2, 2}, 0, Clock{}, Clock{}},   // gather
        MessageEvent{{4, 4}, {2, 2}, 0, Clock{}, Clock{}},   // gather
        MessageEvent{{2, 2}, {8, 8}, 0, Clock{}, Clock{}}};  // scatter
    m.send_bulk(batch);
  }
  const IndependenceReport& report = checker.report();
  ASSERT_EQ(report.count(ViolationKind::kGatherScatterAliasing), 1);
  EXPECT_EQ(report.violations.front().at, (Coord{2, 2}));
  // The exemption did suppress the write-write half.
  EXPECT_EQ(report.count(ViolationKind::kWriteWriteConflict), 0);
  EXPECT_EQ(report.exempted_batches, 1);
}

TEST(IndependenceAdversarial, UnexemptedHubReportsBothKinds) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "fused");
    std::vector<MessageEvent> batch{
        MessageEvent{{0, 0}, {2, 2}, 0, Clock{}, Clock{}},
        MessageEvent{{4, 4}, {2, 2}, 0, Clock{}, Clock{}},
        MessageEvent{{2, 2}, {8, 8}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  const IndependenceReport& report = checker.report();
  EXPECT_EQ(report.count(ViolationKind::kWriteWriteConflict), 1);
  EXPECT_EQ(report.count(ViolationKind::kGatherScatterAliasing), 1);
}

TEST(IndependenceAdversarial, ViolationsAreReportedInCoordinateOrder) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "mixed");
    m.death({3, 3});  // {3, 3} holds no value at batch start
    // Listed out of coordinate order: a three-way fan-in at {5, 1}, the
    // hub {2, 2} (fan-in plus relay), the retired relay {3, 3}, and a
    // two-way fan-in at {0, 7}.
    std::vector<MessageEvent> batch{
        MessageEvent{{6, 0}, {5, 1}, 0, Clock{}, Clock{}},
        MessageEvent{{6, 1}, {5, 1}, 0, Clock{}, Clock{}},
        MessageEvent{{6, 2}, {5, 1}, 0, Clock{}, Clock{}},
        MessageEvent{{0, 0}, {2, 2}, 0, Clock{}, Clock{}},
        MessageEvent{{4, 4}, {2, 2}, 0, Clock{}, Clock{}},
        MessageEvent{{2, 2}, {8, 8}, 0, Clock{}, Clock{}},
        MessageEvent{{3, 0}, {3, 3}, 0, Clock{}, Clock{}},
        MessageEvent{{3, 3}, {3, 9}, 0, Clock{}, Clock{}},
        MessageEvent{{1, 7}, {0, 7}, 0, Clock{}, Clock{}},
        MessageEvent{{1, 8}, {0, 7}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  const IndependenceReport& report = checker.report();
  using Kind = ViolationKind;
  const std::vector<std::pair<Coord, Kind>> want{
      {{0, 7}, Kind::kWriteWriteConflict},
      {{2, 2}, Kind::kWriteWriteConflict},
      {{2, 2}, Kind::kGatherScatterAliasing},
      {{3, 3}, Kind::kReadWriteHazard},
      {{5, 1}, Kind::kWriteWriteConflict}};
  ASSERT_EQ(report.violations.size(), want.size()) << report.str();
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.violations[i].at, want[i].first) << i;
    EXPECT_EQ(report.violations[i].kind, want[i].second) << i;
  }
  EXPECT_EQ(report.max_fan_in, 3);
  const PhaseFootprint& fp = report.per_phase.at("mixed");
  EXPECT_EQ(fp.batches, 1);
  EXPECT_EQ(fp.max_fan_in, 3);
  EXPECT_EQ(fp.conflicts, 5);
}

TEST(IndependenceAdversarial, ZeroDistanceEntriesAreNeverCharged) {
  ScopedGlobalTraceSuspension off;
  IndependenceChecker checker(lenient());
  // Hand-built batch: both entries claim destination {0, 0} but with
  // distance 0 (self-sends are free and undelivered in the model).
  const std::vector<MessageEvent> batch{
      MessageEvent{{0, 0}, {0, 0}, 0, Clock{}, Clock{}},
      MessageEvent{{0, 0}, {0, 0}, 0, Clock{}, Clock{}}};
  checker.on_send_bulk(batch);
  EXPECT_TRUE(checker.report().ok());
  EXPECT_EQ(checker.report().batches, 0);
}

TEST(IndependenceAdversarial, FootprintsAccumulatePerPhase) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  for (int round = 0; round < 3; ++round) {
    Machine::PhaseScope scope(m, "shift");
    std::vector<MessageEvent> batch{
        MessageEvent{{0, 0}, {0, 1}, 0, Clock{}, Clock{}},
        MessageEvent{{0, 1}, {0, 2}, 0, Clock{}, Clock{}}};
    m.send_bulk(batch);
  }
  const IndependenceReport& report = checker.report();
  EXPECT_TRUE(report.ok()) << report.str();
  EXPECT_EQ(report.batches, 3);
  EXPECT_EQ(report.bulk_messages, 6);
  const PhaseFootprint& fp = report.per_phase.at("shift");
  EXPECT_EQ(fp.batches, 3);
  EXPECT_EQ(fp.bulk_messages, 6);
  EXPECT_EQ(fp.max_batch, 2);
  EXPECT_EQ(fp.max_fan_in, 1);
  EXPECT_EQ(fp.conflicts, 0);
  EXPECT_NE(report.str().find("independence: ok"), std::string::npos);
}

TEST(IndependenceAdversarialDeathTest, StrictModeAbortsAtTheViolation) {
  ScopedGlobalTraceSuspension off;
  IndependenceChecker::Config config;
  config.strict = true;
  const std::vector<MessageEvent> bad{
      MessageEvent{{0, 0}, {0, 9}, 9, Clock{}, Clock{}},
      MessageEvent{{1, 0}, {0, 9}, 10, Clock{}, Clock{}}};
  EXPECT_DEATH(
      {
        IndependenceChecker strict_checker(config);
        strict_checker.on_send_bulk(bad);
      },
      "write-write-conflict");
}

TEST(IndependenceAdversarial, StrictDefaultHonorsTheEnvironment) {
#ifndef SCM_STRICT_MODEL
  const char* saved = std::getenv("SCM_STRICT_MODEL");
  const std::string restore = saved == nullptr ? "" : saved;
  // The default is read when a Config is made, from the same switch the
  // conformance checker reads.
  ::setenv("SCM_STRICT_MODEL", "1", 1);
  EXPECT_TRUE(IndependenceChecker::Config{}.strict);
  ::setenv("SCM_STRICT_MODEL", "0", 1);
  EXPECT_FALSE(IndependenceChecker::Config{}.strict);
  if (saved == nullptr) {
    ::unsetenv("SCM_STRICT_MODEL");
  } else {
    ::setenv("SCM_STRICT_MODEL", restore.c_str(), 1);
  }
#else
  EXPECT_TRUE(IndependenceChecker::Config{}.strict);
#endif
}

// --- The degree table against a per-batch reference. --------------------

struct CoordLess {
  bool operator()(Coord a, Coord b) const {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  }
};

/// The checker's rules restated one batch at a time over ordered
/// containers: per-cell degrees in a fresh std::map (which visits cells in
/// coordinate order), retired cells in a std::set, and the backtrace in a
/// bounded deque.
class ReferenceIndependence final : public TraceSink {
 public:
  explicit ReferenceIndependence(std::size_t capacity)
      : capacity_(capacity) {}

  void on_message(Coord from, Coord to, index_t distance) override {
    (void)from;
    (void)to;
    (void)distance;
  }
  void on_send(const MessageEvent& e) override {
    dead_.erase(e.to);
    push(e);
  }
  void on_send_bulk(std::span<const MessageEvent> batch) override {
    struct Degrees {
      index_t in{0};
      index_t out{0};
    };
    std::map<Coord, Degrees, CoordLess> deg;
    index_t charged = 0;
    for (const MessageEvent& e : batch) {
      if (e.distance == 0) continue;
      ++charged;
      ++deg[e.to].in;
      ++deg[e.from].out;
      push(e);
    }
    if (charged == 0) return;
    const bool exempt = ScopedUnorderedDelivery::active();
    const std::string phase = phase_name();
    PhaseFootprint& fp = report_.per_phase[phase];
    ++fp.batches;
    fp.bulk_messages += charged;
    fp.max_batch = std::max(fp.max_batch, charged);
    ++report_.batches;
    report_.bulk_messages += charged;
    if (exempt) {
      ++fp.exempted_batches;
      ++report_.exempted_batches;
    }
    for (const auto& [c, d] : deg) {
      fp.max_fan_in = std::max(fp.max_fan_in, d.in);
      report_.max_fan_in = std::max(report_.max_fan_in, d.in);
      if (exempt) exempt_fan_in_ = std::max(exempt_fan_in_, d.in);
    }
    for (const auto& [c, d] : deg) {
      if (d.in >= 2 && !exempt) {
        std::ostringstream os;
        os << d.in << " of " << charged
           << " batch members deliver to the same destination; delivery "
              "order within a batch is unspecified. Declare the fan-in "
              "order-free with ScopedUnorderedDelivery / "
              "CommutativeDeliveryScope, or split the round";
        add(ViolationKind::kWriteWriteConflict, phase, c, os.str());
      }
      if (d.in < 1 || d.out < 1) continue;
      if (dead_.contains(c)) {
        std::ostringstream os;
        os << "a batch member sends from a cell another member writes, "
              "and the cell held no value at batch start (retired earlier "
              "this epoch): the read can only observe the in-batch "
              "arrival, so the round depends on intra-batch order (in-"
           << d.in << "/out-" << d.out << ")";
        add(ViolationKind::kReadWriteHazard, phase, c, os.str());
      }
      if (d.in >= 2 || d.out >= 2) {
        std::ostringstream os;
        os << "cell relays concentrated traffic within one batch (in-"
           << d.in << "/out-" << d.out
           << "): gather and scatter fused into one round. Split into "
              "dependent batches";
        add(ViolationKind::kGatherScatterAliasing, phase, c, os.str());
      }
    }
    for (const MessageEvent& e : batch) {
      if (e.distance != 0) dead_.erase(e.to);
    }
  }
  void on_birth(Coord at, Clock c) override {
    (void)c;
    dead_.erase(at);
  }
  void on_death(Coord at) override { dead_.insert(at); }
  void on_phase_enter(PhaseId id) override {
    phases_.push_back(id);
    dead_.clear();
  }
  void on_phase_exit(PhaseId id) override {
    (void)id;
    if (!phases_.empty()) phases_.pop_back();
    dead_.clear();
  }
  void on_reset() override { dead_.clear(); }

  [[nodiscard]] const IndependenceReport& report() const { return report_; }
  /// Largest in-degree seen inside ScopedUnorderedDelivery.
  [[nodiscard]] index_t exempt_fan_in() const { return exempt_fan_in_; }

 private:
  void push(const MessageEvent& e) {
    if (capacity_ == 0) return;
    ring_.push_back(e);
    if (ring_.size() > capacity_) ring_.pop_front();
  }
  [[nodiscard]] std::string phase_name() const {
    return phases_.empty() ? std::string("<top>")
                           : PhaseRegistry::instance().name(phases_.back());
  }
  void add(ViolationKind kind, const std::string& phase, Coord at,
           std::string detail) {
    ++report_.per_phase[phase].conflicts;
    report_.violations.push_back(Violation{kind, phase, at, std::move(detail),
                                           {ring_.begin(), ring_.end()}});
  }

  std::size_t capacity_;
  IndependenceReport report_;
  std::vector<PhaseId> phases_;
  std::set<Coord, CoordLess> dead_;
  std::deque<MessageEvent> ring_;
  index_t exempt_fan_in_{0};
};

bool same_event(const MessageEvent& a, const MessageEvent& b) {
  return a.from == b.from && a.to == b.to && a.distance == b.distance &&
         a.payload == b.payload && a.arrival == b.arrival;
}

void expect_same_report(const IndependenceReport& got,
                        const IndependenceReport& want) {
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.bulk_messages, want.bulk_messages);
  EXPECT_EQ(got.exempted_batches, want.exempted_batches);
  EXPECT_EQ(got.max_fan_in, want.max_fan_in);
  EXPECT_EQ(got.per_phase.size(), want.per_phase.size());
  for (const auto& [name, w] : want.per_phase) {
    const auto it = got.per_phase.find(name);
    ASSERT_NE(it, got.per_phase.end()) << name;
    const PhaseFootprint& g = it->second;
    EXPECT_EQ(g.batches, w.batches) << name;
    EXPECT_EQ(g.bulk_messages, w.bulk_messages) << name;
    EXPECT_EQ(g.max_batch, w.max_batch) << name;
    EXPECT_EQ(g.max_fan_in, w.max_fan_in) << name;
    EXPECT_EQ(g.exempted_batches, w.exempted_batches) << name;
    EXPECT_EQ(g.conflicts, w.conflicts) << name;
  }
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < got.violations.size(); ++i) {
    const Violation& g = got.violations[i];
    const Violation& w = want.violations[i];
    EXPECT_EQ(g.kind, w.kind) << "violation " << i;
    EXPECT_EQ(g.phase, w.phase) << "violation " << i;
    EXPECT_EQ(g.at, w.at) << "violation " << i;
    EXPECT_EQ(g.detail, w.detail) << "violation " << i;
    EXPECT_TRUE(std::equal(g.backtrace.begin(), g.backtrace.end(),
                           w.backtrace.begin(), w.backtrace.end(),
                           same_event))
        << "violation " << i;
  }
}

TEST(IndependenceDegreeTable, MatchesPerBatchMapReference) {
  const index_t big = index_t{1} << 31;
  const PhaseId phases[] = {PhaseRegistry::instance().intern("table_a"),
                            PhaseRegistry::instance().intern("table_b"),
                            PhaseRegistry::instance().intern("table_c")};
  for (const std::size_t capacity : {std::size_t{16}, std::size_t{3}}) {
    SCOPED_TRACE("backtrace capacity " + std::to_string(capacity));
    IndependenceChecker::Config config = lenient();
    config.backtrace_capacity = capacity;
    IndependenceChecker checker(config);
    ReferenceIndependence ref(capacity);
    FanoutSink both({&checker, &ref});
    testing::Rng rng(0x7AB1E + capacity);

    const auto random_cell = [&] {
      return Coord{rng.uniform(-300, 300), rng.uniform(-300, 300)};
    };
    // Small batches draw from a pool, so fan-in, hubs and retired cells
    // recur. Four cells lie beyond +-2^31; {2^32 + 1, 2} and {1, 2} share
    // a coord_key.
    std::vector<Coord> pool;
    for (int i = 0; i < 40; ++i) pool.push_back(random_cell());
    pool.insert(pool.end(), {Coord{big + 5, -big - 7},
                             Coord{-(index_t{1} << 40), 3},
                             Coord{(index_t{1} << 32) + 1, 2}, Coord{1, 2}});
    const auto pool_cell = [&] {
      return pool[static_cast<std::size_t>(
          rng.uniform(0, static_cast<index_t>(pool.size()) - 1))];
    };
    index_t tick = 0;
    const auto message = [&](Coord from, Coord to) {
      const Clock payload{tick, 2 * tick};
      ++tick;
      const index_t d = manhattan(from, to);
      return MessageEvent{from, to, d, payload, payload.after_hop(d)};
    };
    // One entry; ~1 in 10 is zero-distance (free, never delivered).
    const auto entry = [&](bool from_pool) {
      const Coord from = from_pool ? pool_cell() : random_cell();
      if (rng.chance(0.1)) return message(from, from);
      return message(from, from_pool ? pool_cell() : random_cell());
    };
    const auto small_batch = [&] {
      std::vector<MessageEvent> batch;
      const index_t n = rng.uniform(1, 16);
      for (index_t i = 0; i < n; ++i) batch.push_back(entry(!rng.chance(0.2)));
      if (rng.chance(0.3)) {
        ScopedUnorderedDelivery order_free("test: reference stream");
        both.on_send_bulk(batch);
      } else {
        both.on_send_bulk(batch);
      }
    };
    const auto random_event = [&] {
      const index_t pick = rng.uniform(0, 99);
      if (pick < 70) {
        small_batch();
      } else if (pick < 82) {
        both.on_death(pool_cell());
      } else if (pick < 87) {
        both.on_phase_enter(phases[rng.uniform(0, 2)]);
      } else if (pick < 92) {
        both.on_phase_exit(kNoPhase);
      } else if (pick < 96) {
        both.on_send(message(pool_cell(), pool_cell()));
      } else if (pick < 99) {
        both.on_birth(pool_cell(), Clock{});
      } else {
        both.on_reset();
      }
    };

    // One small batch, then one 8192-entry batch over mostly distinct
    // cells (some retired), then hundreds of small batches and events.
    both.on_phase_enter(phases[0]);
    small_batch();
    for (int i = 0; i < 200; ++i) both.on_death(random_cell());
    std::vector<MessageEvent> large;
    for (int i = 0; i < 8192; ++i) large.push_back(entry(rng.chance(0.02)));
    both.on_send_bulk(large);
    for (int i = 0; i < 800; ++i) random_event();

    const IndependenceReport& want = ref.report();
    EXPECT_GT(want.count(ViolationKind::kWriteWriteConflict), 0);
    EXPECT_GT(want.count(ViolationKind::kReadWriteHazard), 0);
    EXPECT_GT(want.count(ViolationKind::kGatherScatterAliasing), 0);
    EXPECT_GT(want.exempted_batches, 0);
    EXPECT_GE(ref.exempt_fan_in(), 2);
    expect_same_report(checker.report(), want);
  }
}

// --- Both checkers' report text, pinned. --------------------------------

// Both reports' text for GoldenRun's stream, as each checker printed it
// while it kept its own copy of the violation code. The shared code must
// print it byte for byte.
const char* const kGoldenConformance = R"golden(conformance: 8 violation(s)
memory-cap-exceeded in phase "golden/scalar" at (0,3): processor accumulated 3 live words in one epoch (cap 2)
  message backtrace (oldest first):
    (0,0) -> (0,3) d=3 clock=(0,0)->(1,3)
    (1,0) -> (0,3) d=4 clock=(0,0)->(1,4)
illegal-coordinate in phase "golden/scalar" at (0,9): endpoint (0,9) outside arena [0,0 8x8]
  message backtrace (oldest first):
    (0,0) -> (0,3) d=3 clock=(0,0)->(1,3)
    (1,0) -> (0,3) d=4 clock=(0,0)->(1,4)
    (2,0) -> (0,3) d=5 clock=(0,0)->(1,5)
send-from-dead-cell in phase "golden/scalar" at (1,1): send from a processor whose value was retired in this epoch
  message backtrace (oldest first):
    (1,0) -> (0,3) d=4 clock=(0,0)->(1,4)
    (2,0) -> (0,3) d=5 clock=(0,0)->(1,5)
    (0,3) -> (0,9) d=6 clock=(2,4)->(3,10)
memory-cap-exceeded in phase "golden/scalar" at (7,7): processor accumulated 3 live words in one epoch (cap 2)
  message backtrace (oldest first):
    (2,0) -> (0,3) d=5 clock=(0,0)->(1,5)
    (0,3) -> (0,9) d=6 clock=(2,4)->(3,10)
    (1,1) -> (2,2) d=2 clock=(0,0)->(1,2)
corrupt-distance in phase "golden/open" at (0,0): reported distance 5 for (0,0) -> (0,1) (manhattan 1)
  message backtrace (oldest first):
    (4,4) -> (6,4) d=2 clock=(0,0)->(1,2)
    (5,0) -> (5,5) d=5 clock=(0,0)->(1,5)
    (6,0) -> (5,5) d=6 clock=(0,0)->(1,6)
unbalanced-phase in phase "golden/open" at (0,0): phase "golden/open" entered but never exited
  message backtrace (oldest first):
    (5,0) -> (5,5) d=5 clock=(0,0)->(1,5)
    (6,0) -> (5,5) d=6 clock=(0,0)->(1,6)
    (0,0) -> (0,1) d=5 clock=(0,0)->(1,5)
energy-mismatch in phase "<top>" at (0,0): machine reports energy 55, message stream re-derives 60
  message backtrace (oldest first):
    (5,0) -> (5,5) d=5 clock=(0,0)->(1,5)
    (6,0) -> (5,5) d=6 clock=(0,0)->(1,6)
    (0,0) -> (0,1) d=5 clock=(0,0)->(1,5)
message-count-mismatch in phase "<top>" at (0,0): machine reports 14 messages, message stream re-derives 15
  message backtrace (oldest first):
    (5,0) -> (5,5) d=5 clock=(0,0)->(1,5)
    (6,0) -> (5,5) d=6 clock=(0,0)->(1,6)
    (0,0) -> (0,1) d=5 clock=(0,0)->(1,5)
)golden";

const char* const kGoldenIndependence = R"golden(independence: 3 violation(s)
write-write-conflict in phase "golden/bulk" at (0,5): 2 of 2 batch members deliver to the same destination; delivery order within a batch is unspecified. Declare the fan-in order-free with ScopedUnorderedDelivery / CommutativeDeliveryScope, or split the round
  message backtrace (oldest first):
    (1,1) -> (2,2) d=2 clock=(0,0)->(1,2)
    (0,0) -> (0,5) d=5 clock=(0,0)->(1,5)
    (1,0) -> (0,5) d=6 clock=(0,0)->(1,6)
read-write-hazard in phase "golden/bulk" at (3,3): a batch member sends from a cell another member writes, and the cell held no value at batch start (retired earlier this epoch): the read can only observe the in-batch arrival, so the round depends on intra-batch order (in-1/out-1)
  message backtrace (oldest first):
    (1,0) -> (0,5) d=6 clock=(0,0)->(1,6)
    (3,0) -> (3,3) d=3 clock=(0,0)->(1,3)
    (3,3) -> (3,6) d=3 clock=(0,0)->(1,3)
gather-scatter-aliasing in phase "golden/bulk" at (4,4): cell relays concentrated traffic within one batch (in-1/out-2): gather and scatter fused into one round. Split into dependent batches
  message backtrace (oldest first):
    (4,0) -> (4,4) d=4 clock=(0,0)->(1,4)
    (4,4) -> (5,4) d=1 clock=(0,0)->(1,1)
    (4,4) -> (6,4) d=2 clock=(0,0)->(1,2)
)golden";

const char* const kGoldenPerPhase = R"golden(golden/bulk: batches 4, bulk 9, max batch 3, max fan-in 2, exempted 1, conflicts 3
)golden";

/// One fixed stream under a FanoutSink of both non-strict checkers, with a
/// two-word cap, an arena and a three-message backtrace. It hits seven
/// conformance kinds (the word cap through a send and through births) and
/// all three batch kinds, and carries one exempt batch.
struct GoldenRun {
  GoldenRun()
      : conformance(conformance_config()),
        independence(independence_config()) {
    ScopedGlobalTraceSuspension off;
    FanoutSink both({&conformance, &independence});
    Machine m;
    m.set_trace(&both);
    {
      Machine::PhaseScope p(m, "golden/scalar");
      (void)m.send({0, 0}, {0, 3}, Clock{});
      (void)m.send({1, 0}, {0, 3}, Clock{});
      (void)m.send({2, 0}, {0, 3}, Clock{});      // a third word: over the cap
      (void)m.send({0, 3}, {0, 9}, Clock{2, 4});  // leaves the arena
      m.death({1, 1});
      (void)m.send({1, 1}, {2, 2}, Clock{});  // from a retired cell
      for (int i = 0; i < 3; ++i) m.birth({7, 7}, Clock{1, 1});
    }
    {
      Machine::PhaseScope p(m, "golden/bulk");
      std::vector<MessageEvent> fan_in{
          MessageEvent{{0, 0}, {0, 5}, 0, Clock{}, Clock{}},
          MessageEvent{{1, 0}, {0, 5}, 0, Clock{}, Clock{}}};
      m.send_bulk(fan_in);  // write-write
      m.death({3, 3});
      std::vector<MessageEvent> hazard{
          MessageEvent{{3, 0}, {3, 3}, 0, Clock{}, Clock{}},
          MessageEvent{{3, 3}, {3, 6}, 0, Clock{}, Clock{}}};
      m.send_bulk(hazard);  // read-write
      std::vector<MessageEvent> hub{
          MessageEvent{{4, 0}, {4, 4}, 0, Clock{}, Clock{}},
          MessageEvent{{4, 4}, {5, 4}, 0, Clock{}, Clock{}},
          MessageEvent{{4, 4}, {6, 4}, 0, Clock{}, Clock{}}};
      m.send_bulk(hub);  // aliasing
      ScopedUnorderedDelivery exempt("golden: order-free fan-in");
      std::vector<MessageEvent> exempt_fan_in{
          MessageEvent{{5, 0}, {5, 5}, 0, Clock{}, Clock{}},
          MessageEvent{{6, 0}, {5, 5}, 0, Clock{}, Clock{}}};
      m.send_bulk(exempt_fan_in);
    }
    m.begin_phase("golden/open");  // never exited
    // Past the Machine: a corrupt distance it never charged, so energy and
    // message count disagree with its Metrics.
    both.on_send(MessageEvent{{0, 0}, {0, 1}, 5, Clock{}, Clock{1, 5}});
    conformance.verify(m);
  }

  static ConformanceChecker::Config conformance_config() {
    ConformanceChecker::Config config;
    config.strict = false;
    config.live_word_cap = 2;
    config.arena = Rect{0, 0, 8, 8};
    config.backtrace_capacity = 3;
    return config;
  }
  static IndependenceChecker::Config independence_config() {
    IndependenceChecker::Config config;
    config.strict = false;
    config.backtrace_capacity = 3;
    return config;
  }

  /// One line per phase footprint: name, then every count.
  [[nodiscard]] std::string per_phase() const {
    std::ostringstream os;
    for (const auto& [name, fp] : independence.report().per_phase) {
      os << name << ": batches " << fp.batches << ", bulk " << fp.bulk_messages
         << ", max batch " << fp.max_batch << ", max fan-in " << fp.max_fan_in
         << ", exempted " << fp.exempted_batches << ", conflicts "
         << fp.conflicts << "\n";
    }
    return os.str();
  }

  ConformanceChecker conformance;
  IndependenceChecker independence;
};

TEST(ViolationReportGolden, BothReportsMatchTheirPinnedText) {
  const GoldenRun run;
  EXPECT_EQ(run.conformance.report().str(), kGoldenConformance);
  EXPECT_EQ(run.independence.report().str(), kGoldenIndependence);
  EXPECT_EQ(run.per_phase(), kGoldenPerPhase);
}

TEST(ViolationReportGoldenDeathTest, ConformanceBannerIsTheFirstLine) {
  ScopedGlobalTraceSuspension off;
  ConformanceChecker::Config config;
  config.strict = true;
  EXPECT_DEATH(
      {
        ConformanceChecker strict_checker(config);
        strict_checker.on_send(
            MessageEvent{{0, 0}, {0, 3}, 3, Clock{5, 10}, Clock{5, 10}});
      },
      "^SCM_STRICT_MODEL: model conformance violation\n"
      "non-monotone-clock in phase \"<top>\" at ");
}

TEST(ViolationReportGoldenDeathTest, ConformanceBannerFromABatch) {
  ScopedGlobalTraceSuspension off;
  ConformanceChecker::Config config;
  config.strict = true;
  // The second entry's arrival clock did not advance by its hop; the
  // third is never checked.
  const std::vector<MessageEvent> batch{
      MessageEvent{{0, 0}, {0, 3}, 3, Clock{}, Clock{1, 3}},
      MessageEvent{{1, 0}, {1, 4}, 4, Clock{5, 10}, Clock{5, 10}},
      MessageEvent{{2, 0}, {2, 2}, 2, Clock{}, Clock{1, 2}}};
  EXPECT_DEATH(
      {
        ConformanceChecker strict_checker(config);
        strict_checker.on_send_bulk(batch);
      },
      "^SCM_STRICT_MODEL: model conformance violation\n"
      "non-monotone-clock in phase \"<top>\" at \\(1,4\\): [^\n]*\n"
      "  message backtrace \\(oldest first\\):\n"
      "    \\(0,0\\) -> \\(0,3\\) d=3 clock=\\(0,0\\)->\\(1,3\\)\n$");
}

TEST(ViolationReportGoldenDeathTest, IndependenceBannerIsTheFirstLine) {
  ScopedGlobalTraceSuspension off;
  IndependenceChecker::Config config;
  config.strict = true;
  const std::vector<MessageEvent> bad{
      MessageEvent{{0, 0}, {0, 9}, 9, Clock{}, Clock{1, 9}},
      MessageEvent{{1, 0}, {0, 9}, 10, Clock{}, Clock{1, 10}}};
  EXPECT_DEATH(
      {
        IndependenceChecker strict_checker(config);
        strict_checker.on_send_bulk(bad);
      },
      "^SCM_STRICT_MODEL: batch-independence violation\n"
      "write-write-conflict in phase \"<top>\" at ");
}

// --- Operator annotations. ----------------------------------------------

TEST(OpTraitsAnnotations, AlgebraicLawsMatchTheOperators) {
  static_assert(is_commutative_v<Plus> && is_associative_v<Plus>);
  static_assert(is_commutative_v<Min> && is_associative_v<Min>);
  static_assert(is_commutative_v<Max> && is_associative_v<Max>);
  // First keeps the earlier operand: associative but order-sensitive.
  static_assert(is_associative_v<First> && !is_commutative_v<First>);
  // Segmented operators reset at flags: never commutative, associativity
  // inherited from the inner operator.
  static_assert(is_associative_v<SegOp<Plus>> &&
                !is_commutative_v<SegOp<Plus>>);
  static_assert(!is_commutative_v<SegOp<Min>>);
  // CommutativeDeliveryScope<First> must not compile; enforced by
  // static_assert, which a positive test cannot exercise — the negative
  // cases above pin the trait values it keys on.
  SUCCEED();
}

// --- Library sweeps: real round loops are conflict-free. ----------------

TEST(IndependenceSweep, MergesortRunsConflictFree) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  IndependenceChecker checker(lenient());
  m.set_trace(&checker);
  const Rect region{0, 0, 8, 8};
  GridArray<std::int64_t> a(region, Layout::kZOrder, 64);
  for (index_t i = 0; i < 64; ++i) {
    a[i] = Cell<std::int64_t>{(i * 37) % 64, Clock{}};
  }
  a.announce(m);
  const GridArray<std::int64_t> sorted = mergesort2d(m, a);
  ASSERT_EQ(sorted.size(), 64);
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
  EXPECT_GT(checker.report().batches, 0);
  // The merge base case's gather is the library's one declared exemption.
  EXPECT_GT(checker.report().exempted_batches, 0);
}

// --- FanoutSink: bulk events reach every attached checker as batches. ---

TEST(IndependenceFanout, FanoutForwardsBatchesWithoutReplay) {
  ScopedGlobalTraceSuspension off;
  IndependenceChecker first(lenient());
  IndependenceChecker second(lenient());
  FanoutSink fanout(std::vector<TraceSink*>{&first, &second});
  Machine m;
  m.set_trace(&fanout);
  {
    Machine::PhaseScope scope(m, "both");
    std::vector<MessageEvent> batch = overlapping_batch();
    m.send_bulk(batch);
  }
  EXPECT_EQ(first.report().batches, 1);
  EXPECT_EQ(second.report().batches, 1);
  EXPECT_EQ(first.report().count(ViolationKind::kWriteWriteConflict), 1);
  EXPECT_EQ(second.report().count(ViolationKind::kWriteWriteConflict), 1);
}

// --- Profiler export: the run report carries the verdict. ---------------

TEST(IndependenceExport, ProfilerJsonReportCarriesTheSection) {
  ScopedGlobalTraceSuspension off;
  Profiler profiler;  // Options::independence defaults to on
  Machine m;
  m.set_trace(&profiler);
  {
    Machine::PhaseScope scope(m, "ww");
    std::vector<MessageEvent> batch = overlapping_batch();
    m.send_bulk(batch);
  }
  ASSERT_NE(profiler.independence(), nullptr);
  EXPECT_FALSE(profiler.independence()->report().ok());
  const std::string json = profiler.json_report();
  EXPECT_NE(json.find("\"independence\":{\"enabled\":true"),
            std::string::npos);
  EXPECT_NE(json.find("\"write_write\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ww\""), std::string::npos);

  Profiler::Options off_opts;
  off_opts.independence = false;
  Profiler disabled(off_opts);
  EXPECT_EQ(disabled.independence(), nullptr);
  EXPECT_NE(disabled.json_report().find("\"independence\":{\"enabled\":false"),
            std::string::npos);
}

// --- Fuzzer integration: the sixth oracle family end to end. ------------

class InjectionGuard {
 public:
  InjectionGuard() { testing::set_inject_bulk_overlap(true); }
  ~InjectionGuard() { testing::set_inject_bulk_overlap(false); }
};

TEST(IndependenceFuzz, InjectedOverlapIsCaughtAndShrinksToMinimum) {
  ScopedGlobalTraceSuspension off;
  InjectionGuard inject;
  testing::RunnerConfig config;
  config.seed = 77;
  config.cases = 2;
  config.only = {"permute"};
  config.metamorphic_every = 0;
  config.ab_every = 0;
  std::ostringstream log;
  testing::FuzzRunner runner(config, testing::BoundSet{});
  const testing::FuzzReport report = runner.run(log);
  ASSERT_FALSE(report.ok()) << log.str();
  const testing::FailureRecord& failure = report.failures.front();
  EXPECT_EQ(failure.property, "permute");
  EXPECT_EQ(failure.kind, "independence");
  EXPECT_NE(failure.detail.find("write-write-conflict"), std::string::npos);
  // The replay token reproduces the finding on a fresh runner.
  EXPECT_EQ(failure.replay_token,
            "77:" + std::to_string(failure.case_index));
  std::ostringstream replay_log;
  testing::FuzzRunner replayer(config, testing::BoundSet{});
  const auto replayed = replayer.replay(failure.replay_token, replay_log);
  ASSERT_TRUE(replayed.has_value());
  ASSERT_FALSE(replayed->ok());
  EXPECT_EQ(replayed->failures.front().kind, "independence");
  // Shrinking reached the minimal witness: the injection needs only two
  // cells, and permute's smallest legal instance has n == 2.
  EXPECT_EQ(failure.shrunk.n, 2);
  EXPECT_LE(failure.shrunk.n, failure.original.n);
}

TEST(IndependenceFuzz, NoInjectionMeansNoFindings) {
  ScopedGlobalTraceSuspension off;
  testing::RunnerConfig config;
  config.seed = 77;
  config.cases = 4;
  config.only = {"permute"};
  config.metamorphic_every = 0;
  config.ab_every = 0;
  std::ostringstream log;
  testing::FuzzRunner runner(config, testing::BoundSet{});
  EXPECT_TRUE(runner.run(log).ok()) << log.str();
}

}  // namespace
}  // namespace scm
