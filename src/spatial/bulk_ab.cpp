#include "spatial/bulk_ab.hpp"

#include "spatial/trace.hpp"
#include "spatial/validate.hpp"

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

namespace scm {

namespace {

/// A run's events as the scalar Machine calls that reproduce them. Only
/// the scalar hooks are overridden, so TraceSink's default bulk hooks hand
/// over each batch entry by entry, without the zero-length entries that
/// send() would not charge either.
class Recording final : public TraceSink {
 public:
  void on_message(Coord, Coord, index_t) override {}  // on_send records it
  void on_send(const MessageEvent& e) override {
    events_.push_back({Kind::kSend, e.from, e.to, e.payload});
  }
  void on_op(index_t n) override {
    events_.push_back({.kind = Kind::kOp, .n = n});
  }
  void on_observe(Clock c) override {
    events_.push_back({.kind = Kind::kObserve, .clock = c});
  }
  void on_birth(Coord at, Clock c) override {
    events_.push_back({.kind = Kind::kBirth, .at = at, .clock = c});
  }
  void on_death(Coord at) override {
    events_.push_back({.kind = Kind::kDeath, .at = at});
  }
  void on_phase_enter(PhaseId id) override {
    events_.push_back({.kind = Kind::kPhaseEnter, .n = id});
  }
  void on_phase_exit(PhaseId) override {
    events_.push_back({.kind = Kind::kPhaseExit});
  }
  void on_reset() override { events_.push_back({.kind = Kind::kReset}); }

  /// Makes the recorded calls on `m`, in order.
  void replay(Machine& m) const {
    for (const Event& e : events_) {
      switch (e.kind) {
        case Kind::kSend:
          (void)m.send(e.at, e.to, e.clock);
          break;
        case Kind::kOp:
          m.op(e.n);
          break;
        case Kind::kObserve:
          m.observe(e.clock);
          break;
        case Kind::kBirth:
          m.birth(e.at, e.clock);
          break;
        case Kind::kDeath:
          m.death(e.at);
          break;
        case Kind::kPhaseEnter:
          m.begin_phase(static_cast<PhaseId>(e.n));
          break;
        case Kind::kPhaseExit:
          m.end_phase();
          break;
        case Kind::kReset:
          m.reset();
          break;
      }
    }
  }

 private:
  enum class Kind : std::uint8_t {
    kSend,
    kOp,
    kObserve,
    kBirth,
    kDeath,
    kPhaseEnter,
    kPhaseExit,
    kReset,
  };
  struct Event {
    Kind kind{};
    Coord at{};     ///< send source; birth or death site
    Coord to{};     ///< send destination
    Clock clock{};  ///< send payload; observed or born clock
    index_t n{0};   ///< op count; entered phase
  };
  std::vector<Event> events_;
};

/// One traced run of `algorithm` on a fresh Machine, with `recording`
/// (when not null) beside the checker and the congestion sink. For the
/// parallel leg the caller installs the engine first. `congestion` is
/// either a serial CongestionMap or a ShardedCongestionMap exposing the
/// same canonical exports.
template <typename Congestion>
AbRun run_traced(const std::function<void(Machine&)>& algorithm,
                 Congestion& congestion, TraceSink* recording = nullptr) {
  ConformanceChecker::Config config;
  config.strict = false;  // mismatches must surface as AbResult, not abort
  ConformanceChecker checker(config);
  FanoutSink fanout({&checker, &congestion, recording});
  Machine m;
  m.set_trace(&fanout);
  algorithm(m);
  checker.verify(m);
  AbRun run;
  run.totals = m.metrics();
  run.phases = m.phases();
  run.links = congestion.sorted_links();
  run.congested_clock = congestion.congested_clock();
  run.conformance_ok = checker.report().ok();
  if (!run.conformance_ok) run.conformance_report = checker.report().str();
  return run;
}

AbRun run_parallel(const std::function<void(Machine&)>& algorithm,
                   const parallel::Config& cfg) {
  parallel::ScopedParallelEngine engine(cfg);
  // The sharded sink shares the engine's tiling, so this leg proves both
  // the engine's merged charging and the sharded link decomposition
  // against the serial runs' numbers.
  parallel::ShardedCongestionMap congestion(cfg);
  return run_traced(algorithm, congestion);
}

void append_metrics(std::ostringstream& os, const Metrics& m) {
  os << "energy=" << m.energy << " messages=" << m.messages
     << " local_ops=" << m.local_ops << " depth=" << m.depth()
     << " distance=" << m.distance();
}

void append_metrics_diff(std::ostringstream& os, const std::string& what,
                         const char* label_a, const char* label_b,
                         const Metrics& a, const Metrics& b) {
  os << "  " << what << ":\n    " << label_a << ": ";
  append_metrics(os, a);
  os << "\n    " << label_b << ": ";
  append_metrics(os, b);
  os << '\n';
}

/// Every mismatch between two runs, `a` being the reference; empty when
/// the runs agree on totals, phases, and links (conformance verdicts are
/// reported separately, once per run).
std::string diff_pair(const AbRun& a, const AbRun& b, const char* label_a,
                      const char* label_b) {
  std::ostringstream os;
  if (!(a.totals == b.totals)) {
    append_metrics_diff(os, "totals", label_a, label_b, a.totals, b.totals);
  }
  if (a.phases != b.phases) {
    for (const auto& [name, metrics] : a.phases) {
      const auto it = b.phases.find(name);
      if (it == b.phases.end()) {
        os << "  phase \"" << name << "\": present in " << label_a
           << " only\n";
      } else if (!(it->second == metrics)) {
        append_metrics_diff(os, "phase \"" + name + "\"", label_a, label_b,
                            metrics, it->second);
      }
    }
    for (const auto& [name, metrics] : b.phases) {
      if (!a.phases.contains(name)) {
        os << "  phase \"" << name << "\": present in " << label_b
           << " only\n";
      }
    }
  }
  if (a.congested_clock != b.congested_clock) {
    os << "  congested clock: " << label_a << ' ' << a.congested_clock
       << " vs " << label_b << ' ' << b.congested_clock << '\n';
  }
  if (a.links != b.links) {
    std::size_t reported = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while ((i < a.links.size() || j < b.links.size()) && reported < 8) {
      const bool take_a =
          j >= b.links.size() ||
          (i < a.links.size() && a.links[i].first < b.links[j].first);
      const bool take_b =
          i >= a.links.size() ||
          (j < b.links.size() && b.links[j].first < a.links[i].first);
      if (take_a) {
        os << "  link " << a.links[i].first.str() << ": " << label_a
           << " only (load " << a.links[i].second << ")\n";
        ++i;
        ++reported;
      } else if (take_b) {
        os << "  link " << b.links[j].first.str() << ": " << label_b
           << " only (load " << b.links[j].second << ")\n";
        ++j;
        ++reported;
      } else {
        if (a.links[i].second != b.links[j].second) {
          os << "  link " << a.links[i].first.str() << ": " << label_a << ' '
             << a.links[i].second << " vs " << label_b << ' '
             << b.links[j].second << '\n';
          ++reported;
        }
        ++i;
        ++j;
      }
    }
  }
  return os.str();
}

void append_conformance(std::ostringstream& os, const AbRun& run,
                        const char* label) {
  if (!run.conformance_ok) {
    os << "  " << label << " run not conformant:\n" << run.conformance_report;
  }
}

}  // namespace

std::string AbResult::diff() const {
  if (ok()) return {};
  std::ostringstream os;
  os << diff_pair(scalar, bulk, "scalar", "bulk");
  append_conformance(os, scalar, "scalar");
  append_conformance(os, bulk, "bulk");
  return os.str();
}

AbResult run_ab(const std::function<void(Machine&)>& algorithm) {
  AbResult result;
  // The live run feeds its congestion map batched on_send_bulk events,
  // the replay per-message ones; sorted_links() then compares the two
  // decompositions link by link.
  Recording recording;
  CongestionMap live_links;
  result.bulk = run_traced(algorithm, live_links, &recording);
  const auto replay = [&](Machine& m) { recording.replay(m); };
  CongestionMap replay_links;
  result.scalar = run_traced(replay, replay_links);
  result.totals_equal = result.scalar.totals == result.bulk.totals;
  result.phases_equal = result.scalar.phases == result.bulk.phases;
  result.links_equal =
      result.scalar.links == result.bulk.links &&
      result.scalar.congested_clock == result.bulk.congested_clock;
  return result;
}

std::string AbcResult::diff() const {
  if (ok()) return {};
  std::ostringstream os;
  const std::string sb = diff_pair(scalar, bulk, "scalar", "bulk");
  if (!sb.empty()) os << " scalar vs bulk:\n" << sb;
  const std::string sp = diff_pair(scalar, parallel, "scalar", "parallel");
  if (!sp.empty()) os << " scalar vs parallel:\n" << sp;
  append_conformance(os, scalar, "scalar");
  append_conformance(os, bulk, "bulk");
  append_conformance(os, parallel, "parallel");
  return os.str();
}

AbcResult run_abc(const std::function<void(Machine&)>& algorithm,
                  const parallel::Config& cfg) {
  AbResult ab = run_ab(algorithm);
  AbcResult result;
  result.scalar = std::move(ab.scalar);
  result.bulk = std::move(ab.bulk);
  result.parallel = run_parallel(algorithm, cfg);
  result.totals_equal = result.scalar.totals == result.bulk.totals &&
                        result.scalar.totals == result.parallel.totals;
  result.phases_equal = result.scalar.phases == result.bulk.phases &&
                        result.scalar.phases == result.parallel.phases;
  result.links_equal =
      result.scalar.links == result.bulk.links &&
      result.scalar.links == result.parallel.links &&
      result.scalar.congested_clock == result.bulk.congested_clock &&
      result.scalar.congested_clock == result.parallel.congested_clock;
  return result;
}

}  // namespace scm
