// Tests of the phase-tree profiler and critical-path witness tracer.
//
// Two oracle strategies:
//   * hand-built fixtures whose every message is scripted, so tree shape,
//     self counters, histograms, and witness chains are checked against
//     values computed by hand;
//   * reference recomputation on real algorithm runs (Z-order scan,
//     bitonic sort): the profiler's totals and rolled-up tree must agree
//     with the Machine's own Metrics, and the witness chains must realize
//     the depth / distance identities hop-for-hop. A record-everything
//     reference sink rebuilds the chains from the whole event stream, so
//     the profiler's compact record must yield the same hops.
#include "spatial/profile.hpp"

#include "collectives/scan.hpp"
#include "sort/bitonic.hpp"
#include "spatial/machine.hpp"
#include "spatial/rng.hpp"
#include "testing/gen.hpp"
#include "tree/euler.hpp"
#include "tree/tree.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <numeric>
#include <string>
#include <vector>

namespace scm {
namespace {

/// Finds the child of `parent` whose phase name is `name`; fails the test
/// and returns nullptr when absent.
const Profiler::PhaseNode* child_named(const Profiler& p,
                                       const Profiler::PhaseNode& parent,
                                       const std::string& name) {
  for (const std::uint32_t c : parent.children) {
    const Profiler::PhaseNode& node = p.nodes()[c];
    if (PhaseRegistry::instance().name(node.phase) == name) return &node;
  }
  ADD_FAILURE() << "no child named " << name;
  return nullptr;
}

/// Every hop's arrival must equal payload.after_hop(distance), and along
/// the chain each hop's payload component must carry the previous hop's
/// arrival component — the definition of a dependent chain.
void expect_valid_chain(const Profiler::WitnessChain& chain,
                        bool by_depth) {
  for (std::size_t i = 0; i < chain.hops.size(); ++i) {
    const Profiler::WitnessHop& h = chain.hops[i];
    EXPECT_EQ(h.arrival, h.payload.after_hop(h.distance));
    EXPECT_EQ(h.distance, manhattan(h.from, h.to));
    const index_t carried =
        by_depth ? h.payload.depth : h.payload.distance;
    if (i == 0) {
      EXPECT_EQ(carried, by_depth ? chain.start_clock.depth
                                  : chain.start_clock.distance);
    } else {
      const Profiler::WitnessHop& prev = chain.hops[i - 1];
      EXPECT_EQ(carried,
                by_depth ? prev.arrival.depth : prev.arrival.distance);
    }
  }
}

TEST(ProfilerTree, HandBuiltFixtureReproducedMessageByMessage) {
  Machine m;
  Profiler p(Profiler::Options{.witness = true, .load_map = true});
  m.set_trace(&p);

  Clock c{};
  {
    Machine::PhaseScope a(m, "a");
    c = m.send({0, 0}, {0, 2}, c);  // distance 2
    m.op(3);
    {
      Machine::PhaseScope b(m, "b");
      c = m.send({0, 2}, {1, 2}, c);  // distance 1
    }
  }
  {
    Machine::PhaseScope cphase(m, "c");
    c = m.send({1, 2}, {1, 5}, c);  // distance 3
  }

  // Totals re-derived from the event stream match the machine.
  EXPECT_EQ(p.totals(), m.metrics());
  EXPECT_EQ(p.totals().energy, 6);
  EXPECT_EQ(p.totals().messages, 3);
  EXPECT_EQ(p.totals().local_ops, 3);
  EXPECT_EQ(p.totals().depth(), 3);
  EXPECT_EQ(p.totals().distance(), 6);

  // Tree shape: root -> {a -> {b}, c}, four nodes in all.
  ASSERT_EQ(p.nodes().size(), 4u);
  const Profiler::PhaseNode& root = p.nodes()[0];
  ASSERT_EQ(root.children.size(), 2u);
  const Profiler::PhaseNode* a = child_named(p, root, "a");
  const Profiler::PhaseNode* cn = child_named(p, root, "c");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(cn, nullptr);
  ASSERT_EQ(a->children.size(), 1u);
  const Profiler::PhaseNode* b = child_named(p, *a, "b");
  ASSERT_NE(b, nullptr);

  // Self counters exclude descendants.
  EXPECT_EQ(a->self_energy, 2);
  EXPECT_EQ(a->self_messages, 1);
  EXPECT_EQ(a->self_ops, 3);
  EXPECT_EQ(b->self_energy, 1);
  EXPECT_EQ(b->self_messages, 1);
  EXPECT_EQ(cn->self_energy, 3);
  EXPECT_EQ(root.self_messages, 0);

  // Distance histograms: a saw d=2 (bucket 1), b d=1 (bucket 0),
  // c d=3 (bucket 1).
  ASSERT_EQ(a->hist.buckets.size(), 2u);
  EXPECT_EQ(a->hist.buckets[1], 1);
  EXPECT_EQ(a->hist.max_distance, 2);
  ASSERT_EQ(b->hist.buckets.size(), 1u);
  EXPECT_EQ(b->hist.buckets[0], 1);
  EXPECT_EQ(cn->hist.max_distance, 3);

  // The witness reconstructs the scripted chain exactly: all three sends
  // are on both critical paths.
  const auto path = p.critical_path();
  ASSERT_TRUE(path.enabled);
  ASSERT_TRUE(path.depth_chain.complete);
  ASSERT_EQ(path.depth_chain.hop_count(), 3);
  EXPECT_EQ(path.depth_chain.hops[0].from, (Coord{0, 0}));
  EXPECT_EQ(path.depth_chain.hops[1].to, (Coord{1, 2}));
  EXPECT_EQ(path.depth_chain.hops[2].to, (Coord{1, 5}));
  ASSERT_EQ(path.depth_chain.hops[0].phases.size(), 1u);
  EXPECT_EQ(path.depth_chain.hops[0].phases[0], "a");
  ASSERT_EQ(path.depth_chain.hops[1].phases.size(), 2u);
  EXPECT_EQ(path.depth_chain.hops[1].phases[1], "b");
  EXPECT_EQ(path.depth_chain.hops[2].phases[0], "c");
  EXPECT_EQ(path.distance_chain.total_distance(), 6);
  expect_valid_chain(path.depth_chain, /*by_depth=*/true);
  expect_valid_chain(path.distance_chain, /*by_depth=*/false);

  // The internal congestion map saw every message.
  ASSERT_NE(p.load_map(), nullptr);
  EXPECT_EQ(p.load_map()->messages(), 3);

  m.set_trace(nullptr);
}

TEST(ProfilerTree, CallPathsAreKeptApartUnlikeFlatPhaseTotals) {
  // Machine::phases() folds every "merge" into one entry; the tree keeps
  // "sort/merge" and a top-level "merge" as distinct nodes.
  Machine m;
  Profiler p;
  m.set_trace(&p);
  {
    Machine::PhaseScope sort(m, "sort");
    Machine::PhaseScope merge(m, "merge");
    m.send({0, 0}, {0, 1}, Clock{});
  }
  {
    Machine::PhaseScope merge(m, "merge");
    m.send({0, 0}, {0, 4}, Clock{});
  }
  const Profiler::PhaseNode& root = p.nodes()[0];
  ASSERT_EQ(root.children.size(), 2u);
  const Profiler::PhaseNode* sort = child_named(p, root, "sort");
  const Profiler::PhaseNode* top_merge = child_named(p, root, "merge");
  ASSERT_NE(sort, nullptr);
  ASSERT_NE(top_merge, nullptr);
  const Profiler::PhaseNode* nested = child_named(p, *sort, "merge");
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->self_energy, 1);
  EXPECT_EQ(top_merge->self_energy, 4);
  m.set_trace(nullptr);
}

TEST(ProfilerTree, ReferenceOracleOnZOrderScan) {
  Machine m;
  Profiler p;
  m.set_trace(&p);
  const auto vals = random_ints(/*seed=*/5, 256, 0, 99);
  const std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  (void)scan(m, a, Plus{});

  // The profiler re-derives the machine's Metrics from the event stream.
  EXPECT_EQ(p.totals(), m.metrics());

  // The tree's self counters partition the totals exactly.
  index_t energy = 0;
  index_t messages = 0;
  index_t ops = 0;
  for (const Profiler::PhaseNode& node : p.nodes()) {
    energy += node.self_energy;
    messages += node.self_messages;
    ops += node.self_ops;
    EXPECT_EQ(node.hist.count, node.self_messages);
  }
  EXPECT_EQ(energy, m.metrics().energy);
  EXPECT_EQ(messages, m.metrics().messages);
  EXPECT_EQ(ops, m.metrics().local_ops);
  m.set_trace(nullptr);
}

TEST(ProfilerTree, ResetClearsDataButKeepsOpenScopes) {
  Machine m;
  Profiler p(Profiler::Options{.witness = true});
  m.set_trace(&p);
  m.begin_phase("outer");
  m.send({0, 0}, {0, 7}, Clock{});
  m.reset();
  EXPECT_EQ(p.totals().energy, 0);
  EXPECT_EQ(p.ticks(), 0u);
  EXPECT_EQ(p.critical_path().depth_chain.hop_count(), 0);

  // The surviving "outer" scope keeps attributing after the reset.
  m.send({0, 0}, {0, 2}, Clock{});
  const Profiler::PhaseNode* outer =
      child_named(p, p.nodes()[0], "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->self_energy, 2);
  m.end_phase();
  m.set_trace(nullptr);
}

TEST(Witness, DisabledByDefault) {
  Profiler p;
  EXPECT_FALSE(p.critical_path().enabled);
}

TEST(Witness, RealizesDepthAndDistanceOnZOrderScan) {
  Machine m;
  Profiler p(Profiler::Options{.witness = true});
  m.set_trace(&p);
  const auto vals = random_ints(/*seed=*/7, 1024, 0, 99);
  const std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  (void)scan(m, a, Plus{});

  const auto path = p.critical_path();
  ASSERT_TRUE(path.enabled);
  ASSERT_TRUE(path.depth_chain.complete);
  ASSERT_TRUE(path.distance_chain.complete);
  EXPECT_EQ(path.depth_chain.hop_count() + path.depth_chain.start_clock.depth,
            m.metrics().depth());
  EXPECT_EQ(path.distance_chain.total_distance() +
                path.distance_chain.start_clock.distance,
            m.metrics().distance());
  expect_valid_chain(path.depth_chain, /*by_depth=*/true);
  expect_valid_chain(path.distance_chain, /*by_depth=*/false);
  m.set_trace(nullptr);
}

TEST(Witness, RealizesDepthAndDistanceOnBitonicSort) {
  Machine m;
  Profiler p(Profiler::Options{.witness = true});
  m.set_trace(&p);
  const auto v = random_doubles(/*seed=*/11, 256);
  auto a = GridArray<double>::from_values_square({0, 0}, v,
                                                 Layout::kRowMajor);
  bitonic_sort(m, a, std::less<double>{});

  const auto path = p.critical_path();
  ASSERT_TRUE(path.enabled);
  ASSERT_TRUE(path.depth_chain.complete);
  ASSERT_TRUE(path.distance_chain.complete);
  EXPECT_EQ(path.depth_chain.hop_count() + path.depth_chain.start_clock.depth,
            m.metrics().depth());
  EXPECT_EQ(path.distance_chain.total_distance() +
                path.distance_chain.start_clock.distance,
            m.metrics().distance());
  expect_valid_chain(path.depth_chain, /*by_depth=*/true);
  expect_valid_chain(path.distance_chain, /*by_depth=*/false);
  // Every hop is attributed to at least one phase: bitonic_sort wraps all
  // of its traffic in scopes.
  for (const auto& hop : path.depth_chain.hops) {
    EXPECT_FALSE(hop.phases.empty());
  }
  m.set_trace(nullptr);
}

TEST(Witness, BirthClockStartsTheChain) {
  // An input born with non-zero history anchors the chain: the identities
  // hold relative to the recorded start clock.
  Machine m;
  Profiler p(Profiler::Options{.witness = true});
  m.set_trace(&p);
  m.birth({0, 0}, Clock{2, 4});
  m.send({0, 0}, {0, 1}, Clock{2, 4});
  const auto path = p.critical_path();
  ASSERT_TRUE(path.depth_chain.complete);
  EXPECT_EQ(path.depth_chain.start_clock, (Clock{2, 4}));
  EXPECT_EQ(path.depth_chain.hop_count(), 1);
  EXPECT_EQ(path.depth_chain.hop_count() + path.depth_chain.start_clock.depth,
            m.metrics().depth());
  ASSERT_TRUE(path.distance_chain.complete);
  EXPECT_EQ(path.distance_chain.total_distance() +
                path.distance_chain.start_clock.distance,
            m.metrics().distance());
  m.set_trace(nullptr);
}

TEST(Witness, UnwitnessedHistoryIsReportedIncomplete) {
  // A payload clock with no recorded origin (profiler attached mid-run)
  // must yield complete == false, never a silently wrong chain.
  Machine m;
  Profiler p(Profiler::Options{.witness = true});
  m.set_trace(&p);
  m.send({0, 0}, {0, 3}, Clock{3, 5});
  const auto path = p.critical_path();
  ASSERT_TRUE(path.enabled);
  EXPECT_FALSE(path.depth_chain.complete);
  EXPECT_FALSE(path.distance_chain.complete);
  EXPECT_EQ(path.depth_chain.hop_count(), 1);  // the observed suffix
  m.set_trace(nullptr);
}

/// Reference witness recorder: keeps every send and birth in order, each
/// with the phase-name stack it was charged under, and rebuilds the chains
/// from its own first-achiever maps over that whole stream.
class RecordEverything final : public TraceSink {
 public:
  void on_message(Coord from, Coord to, index_t distance) override {
    (void)from;
    (void)to;
    (void)distance;
  }
  void on_send(const MessageEvent& e) override {
    events_.push_back(Event{Profiler::WitnessHop{e.from, e.to, e.distance,
                                                 e.payload, e.arrival,
                                                 phases_},
                            /*is_birth=*/false});
    max_ = Clock::join(max_, e.arrival);
  }
  void on_birth(Coord at, Clock c) override {
    events_.push_back(
        Event{Profiler::WitnessHop{at, at, 0, c, c, phases_},
              /*is_birth=*/true});
    max_ = Clock::join(max_, c);
  }
  void on_phase_enter(PhaseId id) override {
    phases_.push_back(PhaseRegistry::instance().name(id));
  }
  void on_phase_exit(PhaseId id) override {
    (void)id;
    if (!phases_.empty()) phases_.pop_back();
  }
  void on_reset() override {
    events_.clear();
    max_ = Clock{};
  }

  [[nodiscard]] Profiler::WitnessChain chain(bool by_depth) const {
    const auto component = [by_depth](Clock c) {
      return by_depth ? c.depth : c.distance;
    };
    std::map<index_t, std::size_t> first;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      first.try_emplace(component(events_[i].hop.arrival), i);
    }
    Profiler::WitnessChain chain;
    std::vector<Profiler::WitnessHop> reversed;
    for (index_t need = component(max_); need > 0;) {
      const auto it = first.find(need);
      if (it == first.end()) {
        chain.complete = false;
        break;
      }
      const Event& e = events_[it->second];
      if (e.is_birth) {
        chain.start_clock = e.hop.arrival;
        break;
      }
      reversed.push_back(e.hop);
      need = component(e.hop.payload);
    }
    chain.hops.assign(reversed.rbegin(), reversed.rend());
    return chain;
  }

 private:
  struct Event {
    Profiler::WitnessHop hop;  // births: from == to, distance 0
    bool is_birth{false};
  };
  std::vector<Event> events_;
  std::vector<std::string> phases_;
  Clock max_{};
};

void expect_same_chain(const Profiler::WitnessChain& got,
                       const Profiler::WitnessChain& want) {
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.start_clock, want.start_clock);
  ASSERT_EQ(got.hops.size(), want.hops.size());
  for (std::size_t i = 0; i < got.hops.size(); ++i) {
    const Profiler::WitnessHop& g = got.hops[i];
    const Profiler::WitnessHop& w = want.hops[i];
    EXPECT_EQ(g.from, w.from) << "hop " << i;
    EXPECT_EQ(g.to, w.to) << "hop " << i;
    EXPECT_EQ(g.distance, w.distance) << "hop " << i;
    EXPECT_EQ(g.payload, w.payload) << "hop " << i;
    EXPECT_EQ(g.arrival, w.arrival) << "hop " << i;
    EXPECT_EQ(g.phases, w.phases) << "hop " << i;
  }
}

/// Runs `body` on a Machine traced by a witnessing Profiler and the
/// reference side by side, then compares both chains hop for hop.
void expect_matches_reference(const std::function<void(Machine&)>& body) {
  Machine m;
  Profiler p(Profiler::Options{.witness = true});
  RecordEverything ref;
  FanoutSink both({&p, &ref});
  m.set_trace(&both);
  body(m);
  const Profiler::CriticalPathWitness path = p.critical_path();
  ASSERT_TRUE(path.enabled);
  {
    SCOPED_TRACE("depth chain");
    expect_same_chain(path.depth_chain, ref.chain(/*by_depth=*/true));
  }
  {
    SCOPED_TRACE("distance chain");
    expect_same_chain(path.distance_chain, ref.chain(/*by_depth=*/false));
  }
  m.set_trace(nullptr);
}

TEST(Witness, MatchesRecordEverythingReference) {
  {
    SCOPED_TRACE("Z-order scan");
    expect_matches_reference([](Machine& m) {
      const auto vals = random_ints(/*seed=*/13, 1024, 0, 99);
      const std::vector<long long> v(vals.begin(), vals.end());
      auto a = GridArray<long long>::from_values_square({0, 0}, v);
      (void)scan(m, a, Plus{});
    });
  }
  {
    SCOPED_TRACE("bitonic_sort");
    expect_matches_reference([](Machine& m) {
      const auto v = random_doubles(/*seed=*/17, 1024);
      auto a = GridArray<double>::from_values_square({0, 0}, v,
                                                     Layout::kRowMajor);
      bitonic_sort(m, a, std::less<double>{});
    });
  }
  {
    SCOPED_TRACE("tree::euler_tour");
    expect_matches_reference([](Machine& m) {
      testing::Rng rng(0x3E7);
      const index_t n = 200;
      const tree::Tree t{
          n, testing::gen_tree(rng, n, testing::TreeShape::kRandomPrufer),
          0};
      (void)tree::euler_tour(m, tree::normalize(t), {0, 0});
    });
  }
  {
    // Births at sparse large clocks anchor the chains, a Machine::reset
    // drops the history before it, and a payload with no recorded origin
    // leaves the final chains incomplete. Each stage is compared.
    SCOPED_TRACE("hand-built stream");
    const auto stage = [](const std::function<void(Machine&)>& tail) {
      expect_matches_reference([&](Machine& m) {
        m.begin_phase("outer");
        Clock c = m.send({0, 0}, {0, 5}, Clock{});
        c = m.send({0, 5}, {3, 5}, c);
        m.reset();
        m.birth({2, 2}, Clock{1'000'000, 5'000'000});
        m.birth({9, 9}, Clock{3, 7'000'000});
        c = m.send({2, 2}, {2, 6}, Clock{1'000'000, 5'000'000});
        {
          Machine::PhaseScope inner(m, "inner");
          c = m.send({2, 6}, {7, 6}, c);
          (void)m.send({9, 9}, {9, 12}, Clock{3, 7'000'000});
        }
        tail(m);
        m.end_phase();
      });
    };
    stage([](Machine& m) { (void)m; });
    stage([](Machine& m) {
      (void)m.send({7, 6}, {7, 8}, Clock{2'000'000, 9'000'000});
    });
  }
}

TEST(Histogram, Log2BucketsAndPercentile) {
  DistanceHistogram h;
  EXPECT_EQ(h.percentile_lower_bound(50.0), 0);  // empty
  h.add(1);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(8);
  ASSERT_EQ(h.buckets.size(), 4u);
  EXPECT_EQ(h.buckets[0], 2);  // d = 1
  EXPECT_EQ(h.buckets[1], 2);  // d in [2, 3]
  EXPECT_EQ(h.buckets[2], 0);
  EXPECT_EQ(h.buckets[3], 1);  // d = 8
  EXPECT_EQ(h.count, 5);
  EXPECT_EQ(h.max_distance, 8);
  EXPECT_EQ(h.percentile_lower_bound(40.0), 1);   // rank 2 -> bucket 0
  EXPECT_EQ(h.percentile_lower_bound(50.0), 2);   // rank 3 -> bucket 1
  EXPECT_EQ(h.percentile_lower_bound(100.0), 8);  // rank 5 -> bucket 3
}

TEST(Export, ChromeTraceParsesAndScopesBalance) {
  Machine m;
  Profiler p;
  m.set_trace(&p);
  {
    Machine::PhaseScope sort(m, "sort");
    m.send({0, 0}, {0, 1}, Clock{});
    Machine::PhaseScope merge(m, "merge");
    m.send({0, 1}, {0, 2}, Clock{});
  }
  {
    // Left open on purpose: the exporter must close it itself.
    m.begin_phase("tail");
    m.send({0, 0}, {2, 0}, Clock{});
  }
  const auto doc = util::json::parse(p.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  const util::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int begins = 0;
  int ends = 0;
  std::uint64_t last_ts = 0;
  for (const util::json::Value& e : events->array) {
    const util::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") continue;  // metadata
    ASSERT_NE(e.find("name"), nullptr);
    const util::json::Value* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(static_cast<std::uint64_t>(ts->number), last_ts);
    last_ts = static_cast<std::uint64_t>(ts->number);
    if (ph->string == "B") ++begins;
    if (ph->string == "E") ++ends;
  }
  EXPECT_EQ(begins, 3);  // sort, merge, tail
  EXPECT_EQ(begins, ends);
  m.end_phase();
  m.set_trace(nullptr);
}

TEST(Export, JsonReportHasSchemaTotalsTreeWitnessAndLoad) {
  Machine m;
  Profiler p(Profiler::Options{.witness = true, .load_map = true});
  m.set_trace(&p);
  const auto vals = random_ints(/*seed=*/13, 64, 0, 9);
  const std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  (void)scan(m, a, Plus{});

  const auto doc = util::json::parse(p.json_report());
  ASSERT_TRUE(doc.has_value()) << "report is not valid JSON";
  EXPECT_EQ(doc->find("schema")->string, "scm-run-report");
  EXPECT_EQ(static_cast<int>(doc->find("schema_version")->number),
            Profiler::kSchemaVersion);

  const util::json::Value* totals = doc->find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(static_cast<index_t>(totals->find("energy")->number),
            m.metrics().energy);
  EXPECT_EQ(static_cast<index_t>(totals->find("depth")->number),
            m.metrics().depth());

  const util::json::Value* tree = doc->find("phase_tree");
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->find("name")->string, "<top>");
  ASSERT_NE(tree->find("children"), nullptr);
  EXPECT_FALSE(tree->find("children")->array.empty());
  // Root total == machine energy (the rollup invariant, via the report).
  EXPECT_EQ(
      static_cast<index_t>(tree->find("total")->find("energy")->number),
      m.metrics().energy);

  const util::json::Value* cp = doc->find("critical_path");
  ASSERT_NE(cp, nullptr);
  EXPECT_TRUE(cp->find("enabled")->boolean);
  const util::json::Value* dc = cp->find("depth_chain");
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(static_cast<index_t>(dc->find("hops")->number),
            m.metrics().depth());
  EXPECT_EQ(dc->find("messages")->array.size(),
            static_cast<std::size_t>(m.metrics().depth()));
  const util::json::Value* xc = cp->find("distance_chain");
  ASSERT_NE(xc, nullptr);
  EXPECT_EQ(static_cast<index_t>(xc->find("total_distance")->number),
            m.metrics().distance());

  const util::json::Value* load = doc->find("load");
  ASSERT_NE(load, nullptr);
  EXPECT_TRUE(load->find("enabled")->boolean);
  EXPECT_LE(load->find("p50")->number, load->find("p95")->number);
  EXPECT_LE(load->find("p95")->number, load->find("p99")->number);
  EXPECT_LE(load->find("p99")->number, load->find("max_load")->number);
  m.set_trace(nullptr);
}

TEST(Export, AsciiReportShowsTreeAndTotals) {
  Machine m;
  Profiler p;
  m.set_trace(&p);
  {
    Machine::PhaseScope outer(m, "outer");
    Machine::PhaseScope inner(m, "inner");
    m.send({0, 0}, {0, 5}, Clock{});
  }
  const std::string report = p.ascii_report();
  EXPECT_NE(report.find("<top>"), std::string::npos);
  EXPECT_NE(report.find("outer"), std::string::npos);
  EXPECT_NE(report.find("inner"), std::string::npos);
  EXPECT_NE(report.find("energy=5"), std::string::npos);
  // inner is indented deeper than outer.
  EXPECT_LT(report.find("outer"), report.find("inner"));
  m.set_trace(nullptr);
}

}  // namespace
}  // namespace scm
