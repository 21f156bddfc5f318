// Equivalence tests for the interned-PhaseId cost-attribution engine.
//
// The Machine attributes every charged event to each *distinct* active
// phase name exactly once (a phase stacked at every recursion level is not
// double-counted). The engine maintains that set incrementally at phase
// transitions and adds a pending delta into it per transition and per
// query; these tests pin its semantics against an executable reference:
// the original per-event formulation that rescans the name stack for
// first occurrences and charges every phase eagerly. Both are driven
// through identical event sequences — nested, repeated, reset-spanning,
// and randomized — and must produce identical totals, per-phase Metrics,
// first-touch order and on_observe emissions.
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

namespace scm {
namespace {

// The pre-interning attribution semantics, restated directly from the
// model: an event is charged to phase_stack[i] iff no earlier stack entry
// carries the same name, at the moment it happens. O(depth^2) per event —
// fine as a test oracle.
class ReferenceAttribution {
 public:
  void begin(const std::string& name) { stack_.push_back(name); }

  void end() {
    if (!stack_.empty()) stack_.pop_back();
  }

  // Messages: energy, count and the join of their arrival clocks.
  void charge(index_t energy, index_t messages, Clock max) {
    totals_.energy += energy;
    totals_.messages += messages;
    (void)join(max);
    for_each_active([&](Metrics& pm) {
      pm.energy += energy;
      pm.messages += messages;
    });
  }

  void op(index_t n) {
    totals_.local_ops += n;
    for_each_active([&](Metrics& pm) { pm.local_ops += n; });
  }

  // Joins `c` into the totals and every active phase; true when a record
  // changed: the totals' or an active phase's max clock rose, or an active
  // phase was touched for the first time.
  bool join(Clock c) {
    bool changed = raise(totals_.max_clock, c);
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      if (!first_occurrence(i)) continue;
      changed |= phases_.count(stack_[i]) == 0;
      changed |= raise(record(stack_[i]).max_clock, c);
    }
    return changed;
  }

  // Machine::observe: emits exactly when the join changed a record.
  void observe(Clock c) {
    if (join(c)) observed_.push_back(c);
  }

  // Mirrors Machine::reset: records clear, the stack survives.
  void reset() {
    totals_ = Metrics{};
    phases_.clear();
    touched_.clear();
  }

  [[nodiscard]] const Metrics& totals() const { return totals_; }
  [[nodiscard]] const std::map<std::string, Metrics>& phases() const {
    return phases_;
  }
  [[nodiscard]] const std::vector<std::string>& touched() const {
    return touched_;
  }
  [[nodiscard]] const std::vector<Clock>& observed() const {
    return observed_;
  }

 private:
  static bool raise(Clock& max, Clock c) {
    const Clock joined = Clock::join(max, c);
    const bool rose = !(joined == max);
    max = joined;
    return rose;
  }

  [[nodiscard]] bool first_occurrence(std::size_t i) const {
    for (std::size_t j = 0; j < i; ++j) {
      if (stack_[j] == stack_[i]) return false;
    }
    return true;
  }

  Metrics& record(const std::string& name) {
    const auto [it, inserted] = phases_.try_emplace(name);
    if (inserted) touched_.push_back(name);
    return it->second;
  }

  template <class Fn>
  void for_each_active(Fn fn) {
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      if (first_occurrence(i)) fn(record(stack_[i]));
    }
  }

  std::vector<std::string> stack_;
  Metrics totals_;
  std::map<std::string, Metrics> phases_;
  std::vector<std::string> touched_;  // first-touch order
  std::vector<Clock> observed_;
};

/// Collects every on_observe clock.
class ObserveLog final : public TraceSink {
 public:
  void on_message(Coord, Coord, index_t) override {}
  void on_observe(Clock c) override { observed.push_back(c); }

  std::vector<Clock> observed;
};

// Drives a Machine and the reference through the same event stream. Every
// message, arrival and birth uses a fresh column, so the harness-attached
// conformance checker sees a model-clean trace (one value per cell).
class Harness {
 public:
  Harness() { machine.set_trace(&log); }
  ~Harness() { machine.set_trace(nullptr); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void begin(const std::string& name) {
    machine.begin_phase(name);
    ref.begin(name);
  }

  void end() {
    machine.end_phase();
    ref.end();
  }

  void send(Clock payload = Clock{}) {
    const index_t col = next_col_++;
    const Clock arrival = machine.send({0, col}, {1, col}, payload);
    ref.charge(1, 1, arrival);
  }

  // One batch; entries with `zero_length` set stay on their cell and are
  // free. A batch of only such entries charges nothing.
  void send_bulk(const std::vector<Clock>& payloads,
                 const std::vector<bool>& zero_length) {
    std::vector<MessageEvent> batch;
    index_t energy = 0;
    index_t messages = 0;
    Clock max{};
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const index_t col = next_col_++;
      const Coord to = zero_length[i] ? Coord{0, col} : Coord{1, col};
      batch.push_back(MessageEvent{{0, col}, to, 0, payloads[i], Clock{}});
      if (!zero_length[i]) {
        energy += 1;
        messages += 1;
        max = Clock::join(max, payloads[i].after_hop(1));
      }
    }
    machine.send_bulk(batch);
    if (messages > 0) ref.charge(energy, messages, max);
  }

  void op(index_t n) {
    machine.op(n);
    ref.op(n);
  }

  void observe(Clock c) {
    machine.observe(c);
    ref.observe(c);
  }

  void birth(Clock c) {
    machine.birth({2, next_col_++}, c);
    (void)ref.join(c);
  }

  // An empty batch is a no-op; otherwise the join of its clocks.
  void birth_bulk(const std::vector<Clock>& clocks) {
    std::vector<BirthEvent> batch;
    Clock max{};
    for (const Clock c : clocks) {
      batch.push_back(BirthEvent{{2, next_col_++}, c});
      max = Clock::join(max, c);
    }
    machine.birth_bulk(batch);
    if (!batch.empty()) (void)ref.join(max);
  }

  void reset() {
    machine.reset();
    ref.reset();
  }

  /// The Machine's first-touch order, as names.
  [[nodiscard]] std::vector<std::string> touched_names() const {
    std::vector<std::string> names;
    for (const PhaseId id : machine.touched_phases()) {
      names.push_back(PhaseRegistry::instance().name(id));
    }
    return names;
  }

  void expect_equivalent(const std::string& label) const {
    EXPECT_EQ(machine.metrics(), ref.totals()) << label;
    EXPECT_EQ(machine.phases(), ref.phases()) << label;
    EXPECT_EQ(touched_names(), ref.touched()) << label;
    EXPECT_EQ(log.observed, ref.observed()) << label;
  }

  Machine machine;
  ReferenceAttribution ref;
  ObserveLog log;

 private:
  index_t next_col_{0};
};

TEST(PhaseAttribution, NestedScopesMatchReference) {
  Harness h;
  h.begin("sort");
  h.send();
  h.begin("merge");
  h.send();
  h.op(3);
  h.begin("merge/base");
  h.send();
  h.end();
  h.send();
  h.end();
  h.send();
  h.end();
  h.expect_equivalent("nested");
  EXPECT_EQ(h.machine.phase("sort").energy, 5);
  EXPECT_EQ(h.machine.phase("merge").energy, 3);
  EXPECT_EQ(h.machine.phase("merge/base").energy, 1);
}

TEST(PhaseAttribution, RepeatedRecursiveNamesCountOnce) {
  Harness h;
  // mergesort2d-style recursion: the same name at every level, with a
  // distinct step name interleaved, 16 levels deep.
  const int depth = 16;
  for (int d = 0; d < depth; ++d) {
    h.begin("mergesort2d");
    h.send();
    h.begin("merge/step");
    h.send();
  }
  h.op(7);
  for (int d = 0; d < depth; ++d) {
    h.end();
    h.end();
  }
  h.expect_equivalent("repeated");
  // Every one of the 2*depth sends lies inside both distinct names.
  EXPECT_EQ(h.machine.phase("mergesort2d").energy, 2 * depth);
  EXPECT_EQ(h.machine.phase("merge/step").energy, 2 * depth - 1);
  EXPECT_EQ(h.machine.phase("mergesort2d").local_ops, 7);
}

TEST(PhaseAttribution, ResetSpanningScopeKeepsAttributing) {
  Harness h;
  h.begin("outer");
  h.send();
  h.send();
  h.reset();
  EXPECT_TRUE(h.machine.phases().empty());
  // The scope survived the reset: post-reset charges attribute to it.
  h.send();
  h.expect_equivalent("post-reset");
  EXPECT_EQ(h.machine.phase("outer").energy, 1);
  EXPECT_EQ(h.machine.phase("outer").messages, 1);
  h.end();
  h.expect_equivalent("after-close");
}

TEST(PhaseAttribution, RandomizedSequencesMatchReference) {
  const std::vector<std::string> names = {"sort", "merge", "merge/step",
                                          "scan", "base"};
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    Harness h;
    std::mt19937_64 rng(seed);
    int depth = 0;
    for (int step = 0; step < 2000; ++step) {
      switch (rng() % 10) {
        case 0:
        case 1:
        case 2:
          if (depth < 40) {
            h.begin(names[rng() % names.size()]);
            ++depth;
          }
          break;
        case 3:
        case 4:
          if (depth > 0) {
            h.end();
            --depth;
          }
          break;
        case 5:
        case 6:
        case 7:
          h.send();
          break;
        case 8:
          h.op(static_cast<index_t>(rng() % 5));
          break;
        default:
          h.observe(Clock{static_cast<index_t>(rng() % 8),
                          static_cast<index_t>(rng() % 64)});
          break;
      }
      if (step % 500 == 499) h.expect_equivalent("mid-run");
    }
    while (depth > 0) {
      h.end();
      --depth;
    }
    h.expect_equivalent("seed " + std::to_string(seed));
  }
}

// Every event kind, resets, and per-phase queries at random steps. Queries
// flush the pending delta, so each answer must equal the reference's and
// the run's final records, first-touch order and on_observe emissions must
// equal those of the same stream without queries.
struct AttributionOutcome {
  Metrics totals;
  std::map<std::string, Metrics> phases;
  std::vector<std::string> touched;
  std::vector<Clock> observed;
};

AttributionOutcome run_random_stream(std::uint64_t seed, bool query) {
  const std::vector<std::string> names = {"sort", "merge", "merge/step",
                                          "scan", "base"};
  Harness h;
  std::mt19937_64 rng(seed);
  const auto clock = [&rng] {
    const auto depth = static_cast<index_t>(rng() % 8);
    return Clock{depth, static_cast<index_t>(rng() % 64)};
  };
  const auto clocks = [&] {
    std::vector<Clock> out(rng() % 4);
    for (Clock& c : out) c = clock();
    return out;
  };
  int depth = 0;
  for (int step = 0; step < 3000; ++step) {
    switch (rng() % 16) {
      case 0:
      case 1:
      case 2:
        if (depth < 40) {
          h.begin(names[rng() % names.size()]);
          ++depth;
        }
        break;
      case 3:
      case 4:
        if (depth > 0) {
          h.end();
          --depth;
        }
        break;
      case 5:
      case 6:
        h.send(clock());
        break;
      case 7: {
        const std::vector<Clock> payloads = clocks();
        std::vector<bool> zero_length;
        for (std::size_t i = 0; i < payloads.size(); ++i) {
          zero_length.push_back(rng() % 3 == 0);
        }
        h.send_bulk(payloads, zero_length);
        break;
      }
      case 8:
        h.op(static_cast<index_t>(rng() % 3));  // op(0) touches, too
        break;
      case 9:
        h.birth(clock());
        break;
      case 10:
        h.birth_bulk(clocks());
        break;
      case 11:
        if (rng() % 4 == 0) h.reset();
        break;
      default:
        h.observe(clock());
        break;
    }
    // Drawn on every step, so both runs see the same event stream.
    const std::uint64_t ask = rng() % 24;
    const std::string& asked = names[rng() % names.size()];
    if (!query) continue;
    if (ask == 0) {
      const PhaseId id = PhaseRegistry::instance().find(asked);
      const auto it = h.ref.phases().find(asked);
      const Metrics want =
          it == h.ref.phases().end() ? Metrics{} : it->second;
      EXPECT_EQ(h.machine.phase(id), want) << asked << " step " << step;
      EXPECT_EQ(h.machine.phase(asked), want) << asked << " step " << step;
    } else if (ask == 1) {
      EXPECT_EQ(h.machine.phases(), h.ref.phases()) << "step " << step;
    } else if (ask == 2) {
      EXPECT_EQ(h.touched_names(), h.ref.touched()) << "step " << step;
    }
  }
  while (depth > 0) {
    h.end();
    --depth;
  }
  h.expect_equivalent("seed " + std::to_string(seed) +
                      (query ? " with queries" : " without queries"));
  return {h.machine.metrics(), h.machine.phases(), h.touched_names(),
          h.log.observed};
}

TEST(PhaseAttribution, RandomizedStreamsWithQueriesMatchReference) {
  for (std::uint64_t seed : {3u, 11u, 29u, 101u}) {
    const AttributionOutcome queried = run_random_stream(seed, true);
    const AttributionOutcome plain = run_random_stream(seed, false);
    EXPECT_EQ(queried.totals, plain.totals) << seed;
    EXPECT_EQ(queried.phases, plain.phases) << seed;
    EXPECT_EQ(queried.touched, plain.touched) << seed;
    EXPECT_EQ(queried.observed, plain.observed) << seed;
    EXPECT_FALSE(plain.observed.empty()) << seed;
  }
}

TEST(PhaseAttribution, PhaseReferenceIsStableAcrossGrowth) {
  Machine m;
  {
    Machine::PhaseScope scope(m, "stable");
    m.send({0, 0}, {0, 1}, Clock{});
  }
  const Metrics& record = m.phase("stable");
  EXPECT_EQ(record.energy, 1);
  // Interning many new names grows the id-indexed tables; the reference
  // must stay valid (per-phase records never move) and keep tracking.
  for (int i = 0; i < 200; ++i) {
    Machine::PhaseScope scope(m, "growth" + std::to_string(i));
    m.send({1, i}, {2, i}, Clock{});
  }
  {
    Machine::PhaseScope scope(m, "stable");
    m.send({0, 2}, {0, 3}, Clock{});
  }
  EXPECT_EQ(record.energy, 2);
}

TEST(PhaseAttribution, InternedIdsRoundTripAndMatchNameForm) {
  PhaseRegistry& registry = PhaseRegistry::instance();
  const PhaseId id = registry.intern("interned_phase_test");
  EXPECT_EQ(registry.intern("interned_phase_test"), id);
  EXPECT_EQ(registry.find("interned_phase_test"), id);
  EXPECT_EQ(registry.name(id), "interned_phase_test");
  EXPECT_EQ(registry.find("never_interned_phase_name"), kNoPhase);

  // The PhaseId scope form attributes identically to the name form.
  Machine by_name;
  Machine by_id;
  {
    Machine::PhaseScope scope(by_name, "interned_phase_test");
    by_name.send({0, 0}, {0, 2}, Clock{});
  }
  {
    Machine::PhaseScope scope(by_id, id);
    by_id.send({0, 0}, {0, 2}, Clock{});
  }
  EXPECT_EQ(by_name.phases(), by_id.phases());
  EXPECT_EQ(by_id.phase("interned_phase_test").energy, 2);
}

TEST(PhaseAttribution, MachinesAttributeIndependently) {
  // The registry is process-global but records are per-machine.
  Machine a;
  Machine b;
  {
    Machine::PhaseScope sa(a, "shared_name");
    a.send({0, 0}, {0, 1}, Clock{});
    Machine::PhaseScope sb(b, "shared_name");
    b.send({0, 0}, {0, 3}, Clock{});
  }
  EXPECT_EQ(a.phase("shared_name").energy, 1);
  EXPECT_EQ(b.phase("shared_name").energy, 3);
}

}  // namespace
}  // namespace scm
