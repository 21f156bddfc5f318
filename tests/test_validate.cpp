// Tests of the model-conformance checker: adversarial fixtures that
// deliberately violate each Spatial Computer Model invariant and assert
// the checker reports exactly that violation, plus conformance sweeps
// asserting the paper's algorithms run violation-free under enforcement.
#include "spatial/validate.hpp"

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "select/select.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/rng.hpp"
#include "spmv/generators.hpp"
#include "spmv/spmv.hpp"

#include "testing/gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

namespace scm {
namespace {

ConformanceChecker::Config lenient() {
  ConformanceChecker::Config config;
  config.strict = false;
  return config;
}

ConformanceChecker::Config lenient(index_t cap) {
  ConformanceChecker::Config config = lenient();
  config.live_word_cap = cap;
  return config;
}

// --- Adversarial fixtures: one per enforced invariant. ------------------

TEST(ConformanceAdversarial, HoardingCellExceedsLiveWordCap) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  ConformanceChecker checker(lenient(/*cap=*/8));
  m.set_trace(&checker);
  {
    Machine::PhaseScope scope(m, "hoard");
    // Θ(√n)-style hoarding: park 40 words on one processor in one phase.
    for (index_t i = 1; i <= 40; ++i) m.send({0, i}, {0, 0}, Clock{});
  }
  checker.finish();
  const ConformanceReport& report = checker.report();
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.count(ViolationKind::kMemoryCapExceeded), 1);
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kMemoryCapExceeded);
  EXPECT_EQ(v.phase, "hoard");
  EXPECT_EQ(v.at, (Coord{0, 0}));
  EXPECT_FALSE(v.backtrace.empty());
  EXPECT_EQ(report.peak_residency, 40);
}

TEST(ConformanceAdversarial, PhaseBoundaryOpensAFreshEpoch) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  ConformanceChecker checker(lenient(/*cap=*/8));
  m.set_trace(&checker);
  // The same 40 words, but spread over phases with <= 8 per epoch: legal.
  for (index_t round = 0; round < 5; ++round) {
    Machine::PhaseScope scope(m, "round");
    for (index_t i = 1; i <= 8; ++i) m.send({0, i}, {0, 0}, Clock{});
  }
  checker.finish();
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(ConformanceAdversarial, NonMonotoneClockIsCaught) {
  ScopedGlobalTraceSuspension off;
  ConformanceChecker checker(lenient());
  // A forged trace event whose arrival clock did not advance by the hop.
  MessageEvent forged{{0, 0}, {0, 3}, 3, Clock{5, 10}, Clock{5, 10}};
  checker.on_send(forged);
  checker.finish();
  ASSERT_EQ(checker.report().count(ViolationKind::kNonMonotoneClock), 1);
  EXPECT_EQ(checker.report().violations.front().at, (Coord{0, 3}));
}

TEST(ConformanceAdversarial, CorruptDistanceIsCaught) {
  ScopedGlobalTraceSuspension off;
  ConformanceChecker checker(lenient());
  // Distance 2 claimed for a Manhattan-3 hop (energy under-charge).
  MessageEvent forged{{0, 0}, {0, 3}, 2, Clock{}, Clock{1, 2}};
  checker.on_send(forged);
  checker.finish();
  EXPECT_EQ(checker.report().count(ViolationKind::kCorruptDistance), 1);
}

TEST(ConformanceAdversarial, UnbalancedPhaseScopeIsCaught) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  m.begin_phase("leaky");
  m.send({0, 0}, {0, 1}, Clock{});
  checker.finish();
  ASSERT_EQ(checker.report().count(ViolationKind::kUnbalancedPhase), 1);
  const Violation& v = checker.report().violations.front();
  EXPECT_EQ(v.phase, "leaky");
  EXPECT_NE(v.detail.find("leaky"), std::string::npos);
  m.end_phase();  // clean up the machine's stack
}

TEST(ConformanceAdversarial, SendFromRetiredCellIsCaught) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  m.birth({2, 2});
  m.death({2, 2});
  m.send({2, 2}, {2, 3}, Clock{});
  ASSERT_EQ(checker.report().count(ViolationKind::kSendFromDeadCell), 1);
  EXPECT_EQ(checker.report().violations.front().at, (Coord{2, 2}));
  // A new arrival revives the cell: sending onward is legal again.
  m.send({0, 0}, {2, 2}, Clock{});
  m.send({2, 2}, {0, 0}, Clock{});
  checker.finish();
  EXPECT_EQ(checker.report().count(ViolationKind::kSendFromDeadCell), 1);
}

TEST(ConformanceAdversarial, EndpointOutsideArenaIsCaught) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  ConformanceChecker::Config config = lenient();
  config.arena = Rect{0, 0, 4, 4};
  ConformanceChecker checker(config);
  m.set_trace(&checker);
  m.send({0, 0}, {3, 3}, Clock{});  // inside: fine
  m.send({9, 9}, {0, 0}, Clock{});  // from outside the arena
  checker.finish();
  ASSERT_EQ(checker.report().count(ViolationKind::kIllegalCoordinate), 1);
  EXPECT_EQ(checker.report().violations.front().at, (Coord{9, 9}));
}

TEST(ConformanceAdversarial, VerifyCatchesUnobservedCharges) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  m.send({0, 0}, {0, 5}, Clock{});  // charged before the checker attached
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  m.send({0, 0}, {0, 2}, Clock{});
  checker.verify(m);
  EXPECT_EQ(checker.report().count(ViolationKind::kEnergyMismatch), 1);
  EXPECT_EQ(checker.report().count(ViolationKind::kMessageCountMismatch), 1);
}

TEST(ConformanceAdversarial, BacktraceKeepsTheMostRecentMessages) {
  ScopedGlobalTraceSuspension off;
  Machine m;
  ConformanceChecker::Config config = lenient();
  config.backtrace_capacity = 4;
  ConformanceChecker checker(config);
  m.set_trace(&checker);
  for (index_t i = 1; i <= 10; ++i) m.send({0, 0}, {i, 0}, Clock{});
  checker.on_send(MessageEvent{{0, 0}, {0, 1}, 99, Clock{}, Clock{1, 99}});
  ASSERT_EQ(checker.report().count(ViolationKind::kCorruptDistance), 1);
  const Violation& v = checker.report().violations.front();
  ASSERT_EQ(v.backtrace.size(), 4u);
  // Oldest retained message is send #7; the newest is send #10.
  EXPECT_EQ(v.backtrace.front().to, (Coord{7, 0}));
  EXPECT_EQ(v.backtrace.back().to, (Coord{10, 0}));
}

TEST(ConformanceAdversarialDeathTest, StrictModeAbortsAtTheViolation) {
  ScopedGlobalTraceSuspension off;
  ConformanceChecker::Config config;
  config.strict = true;
  EXPECT_DEATH(
      {
        ConformanceChecker strict_checker(config);
        strict_checker.on_send(
            MessageEvent{{0, 0}, {0, 3}, 3, Clock{5, 10}, Clock{5, 10}});
      },
      "non-monotone-clock");
}

TEST(ConformanceAdversarial, StrictDefaultHonorsTheEnvironment) {
#ifndef SCM_STRICT_MODEL
  const char* saved = std::getenv("SCM_STRICT_MODEL");
  const std::string restore = saved == nullptr ? "" : saved;
  ::setenv("SCM_STRICT_MODEL", "1", 1);
  EXPECT_TRUE(ConformanceChecker::strict_model_default());
  ::setenv("SCM_STRICT_MODEL", "0", 1);
  EXPECT_FALSE(ConformanceChecker::strict_model_default());
  if (saved == nullptr) {
    ::unsetenv("SCM_STRICT_MODEL");
  } else {
    ::setenv("SCM_STRICT_MODEL", restore.c_str(), 1);
  }
#else
  EXPECT_TRUE(ConformanceChecker::strict_model_default());
#endif
}

// --- Residency against an ordered-map reference. ------------------------

struct CoordLess {
  bool operator()(Coord a, Coord b) const {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  }
};

/// The checker's residency and liveness rules restated over ordered
/// containers: live words per cell in a std::map and retired cells in a
/// std::set, both emptied at every epoch boundary. It keeps the two kinds
/// those rules report, and counts cells whose count starts over in a later
/// epoch.
class ReferenceResidency final : public TraceSink {
 public:
  struct Found {
    ViolationKind kind;
    Coord at;
    std::string phase;
  };

  explicit ReferenceResidency(index_t cap) : cap_(cap) {}

  void on_message(Coord from, Coord to, index_t distance) override {
    (void)from;
    (void)to;
    (void)distance;
  }
  void on_send(const MessageEvent& e) override {
    if (dead_.contains(e.from)) {
      found_.push_back({ViolationKind::kSendFromDeadCell, e.from, phase()});
    }
    arrive(e.to);
  }
  void on_birth(Coord at, Clock c) override {
    (void)c;
    arrive(at);
  }
  void on_death(Coord at) override {
    index_t& words = residency_[at];
    if (words > 0) --words;
    dead_.insert(at);
  }
  void on_phase_enter(PhaseId id) override {
    phases_.push_back(id);
    new_epoch();
  }
  void on_phase_exit(PhaseId id) override {
    (void)id;
    if (!phases_.empty()) phases_.pop_back();
    new_epoch();
  }
  void on_reset() override { new_epoch(); }

  [[nodiscard]] const std::vector<Found>& found() const { return found_; }
  [[nodiscard]] index_t peak() const { return peak_; }
  [[nodiscard]] index_t restarts() const { return restarts_; }

 private:
  void arrive(Coord at) {
    dead_.erase(at);
    if (!residency_.contains(at) && earlier_.contains(at)) ++restarts_;
    const index_t words = ++residency_[at];
    peak_ = std::max(peak_, words);
    if (words == cap_ + 1) {
      found_.push_back({ViolationKind::kMemoryCapExceeded, at, phase()});
    }
  }
  void new_epoch() {
    for (const auto& [c, words] : residency_) {
      if (words > 0) earlier_.insert(c);
    }
    residency_.clear();
    dead_.clear();
  }
  [[nodiscard]] std::string phase() const {
    return phases_.empty() ? std::string("<top>")
                           : PhaseRegistry::instance().name(phases_.back());
  }

  index_t cap_;
  std::map<Coord, index_t, CoordLess> residency_;
  std::set<Coord, CoordLess> dead_;
  std::set<Coord, CoordLess> earlier_;  ///< resident in an earlier epoch
  std::vector<PhaseId> phases_;
  std::vector<Found> found_;
  index_t peak_{0};
  index_t restarts_{0};
};

/// Forwards every scalar event to a checker and overrides no bulk hook, so
/// the checker sees each batch entry by entry, as the default replay
/// delivers it.
class EntryByEntry final : public TraceSink {
 public:
  explicit EntryByEntry(TraceSink& inner) : inner_(inner) {}

  void on_message(Coord from, Coord to, index_t distance) override {
    inner_.on_message(from, to, distance);
  }
  void on_send(const MessageEvent& e) override { inner_.on_send(e); }
  void on_birth(Coord at, Clock c) override { inner_.on_birth(at, c); }
  void on_death(Coord at) override { inner_.on_death(at); }
  void on_phase_enter(PhaseId id) override { inner_.on_phase_enter(id); }
  void on_phase_exit(PhaseId id) override { inner_.on_phase_exit(id); }
  void on_reset() override { inner_.on_reset(); }

 private:
  TraceSink& inner_;
};

bool same_event(const MessageEvent& a, const MessageEvent& b) {
  return a.from == b.from && a.to == b.to && a.distance == b.distance &&
         a.payload == b.payload && a.arrival == b.arrival;
}

TEST(ConformanceResidency, MatchesMapReference) {
  ScopedGlobalTraceSuspension off;
  const index_t big = index_t{1} << 31;
  const PhaseId phases[] = {PhaseRegistry::instance().intern("residency_a"),
                            PhaseRegistry::instance().intern("residency_b"),
                            PhaseRegistry::instance().intern("residency_c")};
  for (const std::size_t capacity : {std::size_t{16}, std::size_t{3}}) {
    SCOPED_TRACE("backtrace capacity " + std::to_string(capacity));
    ConformanceChecker::Config config = lenient(/*cap=*/2);
    config.backtrace_capacity = capacity;
    ConformanceChecker checker(config);
    ConformanceChecker replayed(config);
    EntryByEntry entry_by_entry(replayed);
    ReferenceResidency ref(config.live_word_cap);
    FanoutSink all({&checker, &entry_by_entry, &ref});
    testing::Rng rng(0x4E51D + capacity);

    // Columns on both sides of page edges; rows and columns beyond
    // +-2^31. {2^32 + 1, 2} and {1, 2} share a coord_key.
    const std::vector<index_t> edges{-65, -64, -1, 0, 63, 64};
    std::vector<Coord> pool{Coord{big + 5, -big - 7},
                            Coord{-(index_t{1} << 40), 3},
                            Coord{(index_t{1} << 32) + 1, 2}, Coord{1, 2},
                            Coord{9, big}};
    for (int i = 0; i < 30; ++i) {
      pool.push_back(rng.chance(0.5)
                         ? Coord{rng.uniform(-300, 300), rng.uniform(-300, 300)}
                         : Coord{rng.uniform(-300, 300),
                                 edges[static_cast<std::size_t>(
                                     rng.uniform(0, 5))]});
    }
    const auto cell = [&] {
      if (rng.chance(0.8)) {
        return pool[static_cast<std::size_t>(
            rng.uniform(0, static_cast<index_t>(pool.size()) - 1))];
      }
      return Coord{rng.uniform(-300, 300), rng.uniform(-300, 300)};
    };
    index_t tick = 0;
    const auto message = [&](Coord from, Coord to) {
      const Clock payload{tick, 2 * tick};
      ++tick;
      const index_t d = manhattan(from, to);
      return MessageEvent{from, to, d, payload, payload.after_hop(d)};
    };
    const auto charged = [&] {
      const Coord from = cell();
      Coord to = cell();
      while (to == from) to = cell();
      return message(from, to);
    };
    std::vector<PhaseId> open;
    const auto random_event = [&] {
      const index_t pick = rng.uniform(0, 99);
      if (pick < 30) {
        all.on_send(charged());
      } else if (pick < 55) {
        // ~1 in 8 entries is zero-length: free, skipped by every hook.
        std::vector<MessageEvent> batch;
        const index_t n = rng.uniform(1, 12);
        for (index_t i = 0; i < n; ++i) {
          if (rng.chance(0.125)) {
            const Coord at = cell();
            batch.push_back(message(at, at));
          } else {
            batch.push_back(charged());
          }
        }
        all.on_send_bulk(batch);
      } else if (pick < 62) {
        all.on_birth(cell(), Clock{tick, tick});
      } else if (pick < 67) {
        std::vector<BirthEvent> births;
        const index_t n = rng.uniform(1, 6);
        for (index_t i = 0; i < n; ++i) births.push_back({cell(), Clock{}});
        all.on_birth_bulk(births);
      } else if (pick < 78) {
        all.on_death(cell());
      } else if (pick < 83) {
        std::vector<Coord> deaths;
        const index_t n = rng.uniform(1, 6);
        for (index_t i = 0; i < n; ++i) deaths.push_back(cell());
        all.on_death_bulk(deaths);
      } else if (pick < 90) {
        open.push_back(phases[rng.uniform(0, 2)]);
        all.on_phase_enter(open.back());
      } else if (pick < 97) {
        if (open.empty()) return;
        all.on_phase_exit(open.back());
        open.pop_back();
      } else {
        all.on_reset();
      }
    };
    for (int i = 0; i < 3000; ++i) random_event();
    while (!open.empty()) {
      all.on_phase_exit(open.back());
      open.pop_back();
    }
    checker.finish();
    replayed.finish();

    // The batch hook and the entry-by-entry replay report the same run.
    const ConformanceReport& got = checker.report();
    EXPECT_EQ(got.str(), replayed.report().str());
    ASSERT_EQ(got.violations.size(), replayed.report().violations.size());
    for (std::size_t i = 0; i < got.violations.size(); ++i) {
      const auto& a = got.violations[i].backtrace;
      const auto& b = replayed.report().violations[i].backtrace;
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end(),
                             same_event))
          << "violation " << i;
    }
    EXPECT_EQ(got.peak_residency, replayed.report().peak_residency);

    // Residency and liveness against the reference.
    std::vector<ReferenceResidency::Found> found;
    for (const Violation& v : got.violations) {
      if (v.kind == ViolationKind::kMemoryCapExceeded ||
          v.kind == ViolationKind::kSendFromDeadCell) {
        found.push_back({v.kind, v.at, v.phase});
      }
    }
    ASSERT_EQ(found.size(), ref.found().size());
    for (std::size_t i = 0; i < found.size(); ++i) {
      EXPECT_EQ(found[i].kind, ref.found()[i].kind) << "violation " << i;
      EXPECT_EQ(found[i].at, ref.found()[i].at) << "violation " << i;
      EXPECT_EQ(found[i].phase, ref.found()[i].phase) << "violation " << i;
    }
    EXPECT_EQ(got.peak_residency, ref.peak());
    EXPECT_GT(got.count(ViolationKind::kMemoryCapExceeded), 0);
    EXPECT_GT(got.count(ViolationKind::kSendFromDeadCell), 0);
    EXPECT_GT(ref.restarts(), 0);
  }
}

// --- Conformance sweeps: the paper's headline algorithms run clean. -----

TEST(ConformanceSweep, ScanIsViolationFree) {
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  auto values = random_ints(7, 1024, 0, 99);
  std::vector<long long> v(values.begin(), values.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  a.announce(m);
  (void)scan(m, a, Plus{});
  checker.verify(m);
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
  EXPECT_EQ(checker.report().energy, m.metrics().energy);
}

TEST(ConformanceSweep, Mergesort2dIsViolationFree) {
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  auto v = random_doubles(11, 1024);
  auto a = GridArray<double>::from_values_square({0, 0}, v,
                                                 Layout::kRowMajor);
  a.announce(m);
  (void)mergesort2d(m, a);
  checker.verify(m);
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(ConformanceSweep, SelectIsViolationFree) {
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  auto v = random_doubles(13, 1024);
  auto a = GridArray<double>::from_values_square({0, 0}, v,
                                                 Layout::kRowMajor);
  a.announce(m);
  (void)select_rank(m, a, 512, /*seed=*/17);
  checker.verify(m);
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(ConformanceSweep, SpmvIsViolationFree) {
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  const CooMatrix a = random_uniform_matrix(100, 400, /*seed=*/19);
  const auto x = random_doubles(23, static_cast<size_t>(a.n_cols()));
  (void)spmv(m, a, x);
  checker.verify(m);
  EXPECT_TRUE(checker.report().ok()) << checker.report().str();
}

TEST(ConformanceSweep, ReportSummarisesACleanRun) {
  Machine m;
  ConformanceChecker checker(lenient());
  m.set_trace(&checker);
  m.send({0, 0}, {2, 3}, Clock{});
  checker.verify(m);
  const std::string text = checker.report().str();
  EXPECT_NE(text.find("conformance: ok"), std::string::npos);
  EXPECT_NE(text.find("energy 5"), std::string::npos);
}

}  // namespace
}  // namespace scm
