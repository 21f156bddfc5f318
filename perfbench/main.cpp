// scm_perfbench: host wall time of one paper workload under the
// configurations users run, or (with --trace 1) that time attributed to the
// simulator's layers by replaying a recorded event stream.
//
//   scm_perfbench --workload bitonic|scan|tree --seed N --seconds S
//                 --trace 0|1 [--spans PATH]
//
// Configurations:
//   bare      no sink, scalar engine (benchmark, example and library users)
//   checked   FanoutSink{ConformanceChecker, IndependenceChecker} as the
//             global trace plus finish(): what every test case pays
//   profiled  Profiler with witness, load map, congestion and independence
//             (--profile=... --congestion) including json_report()
//   par       bare with the parallel engine at nproc threads (traced run
//             only: it waits on every core at each step, so on a shared
//             host its speed changes with the load on the other cores)
//
// Each end-to-end timing is the mean of the fastest tenth of its runs (at
// least three), scaled to the reference core speed by a SpeedProbe timed
// just before each run (calibration.hpp).
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it give raw medians, sample
// counts, tail percentiles and (traced) the largest layer share per
// configuration.
#include "calibration.hpp"
#include "recorder.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "spatial/congestion.hpp"
#include "spatial/independence.hpp"
#include "spatial/machine.hpp"
#include "spatial/parallel.hpp"
#include "spatial/profile.hpp"
#include "spatial/trace.hpp"
#include "spatial/validate.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace {

using perfbench::median;
using Steady = std::chrono::steady_clock;

/// Share of the fastest runs an end-to-end timing averages, and the least
/// number of runs it averages (profiled runs are few and long).
constexpr double kFastShare = 0.1;
constexpr std::size_t kFastMin = 3;

double seconds_between(Steady::time_point a, Steady::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string spans_path;
};

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--spans") {
      opt.spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

/// CPUs this process may run on (what `nproc` prints).
int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

void configure_threads(int threads) {
  scm::parallel::Config cfg;
  cfg.threads = threads;
  scm::parallel::configure(cfg);
}

// ---- spans ------------------------------------------------------------------

/// In-memory span log (name, start, end, parent), written once at exit.
class SpanLog {
 public:
  SpanLog() : origin_(Steady::now()) {}

  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  [[nodiscard]] std::string json() const {
    std::string out = "[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n    {\"id\": %zu, \"parent\": %d, \"start_s\": %.9f, "
                    "\"end_s\": %.9f, \"name\": \"",
                    i == 0 ? "" : ",", i, s.parent, s.start, s.end);
      out += buf;
      out += s.name;
      out += "\"}";
    }
    return out + "\n  ]";
  }

 private:
  struct Span {
    std::string name;
    double start{0};
    double end{0};
    int parent{-1};
  };
  [[nodiscard]] double now() const {
    return seconds_between(origin_, Steady::now());
  }

  Steady::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, closes at scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent)
      : log_(log), id_(log.open(std::move(name), parent)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---- the configurations -----------------------------------------------------

enum class Config { kBare, kChecked, kProfiled, kPar };
constexpr Config kConfigs[] = {Config::kBare, Config::kChecked,
                               Config::kProfiled, Config::kPar};
constexpr Config kTimedConfigs[] = {Config::kBare, Config::kChecked,
                                    Config::kProfiled};

const char* config_name(Config c) {
  switch (c) {
    case Config::kBare: return "bare";
    case Config::kChecked: return "checked";
    case Config::kProfiled: return "profiled";
    case Config::kPar: return "par";
  }
  return "?";
}

struct RunResult {
  double seconds{0};
  double export_seconds{0};  ///< profiled: the json_report() part
  scm::Metrics metrics;
  bool ok{false};
  scm::parallel::EngineStats engine;  ///< par: the engine's counters
};

bool same_model_metrics(const scm::Metrics& a, const scm::Metrics& b) {
  return a.energy == b.energy && a.messages == b.messages &&
         a.depth() == b.depth() && a.distance() == b.distance();
}

RunResult run_config(perfbench::Workload& w, Config config, int nproc) {
  RunResult r;
  switch (config) {
    case Config::kBare: {
      const auto t0 = Steady::now();
      scm::Machine m;
      w.run(m);
      r.seconds = seconds_between(t0, Steady::now());
      r.metrics = m.metrics();
      r.ok = w.check();
      break;
    }
    case Config::kChecked: {
      // The exact stack of tests/scm_test_main.cpp.
      const auto t0 = Steady::now();
      auto checker = std::make_unique<scm::ConformanceChecker>();
      auto independence = std::make_unique<scm::IndependenceChecker>();
      auto fanout = std::make_unique<scm::FanoutSink>(
          std::vector<scm::TraceSink*>{checker.get(), independence.get()});
      scm::Machine::set_global_trace(fanout.get());
      {
        scm::Machine m;
        w.run(m);
        r.metrics = m.metrics();
      }
      scm::Machine::set_global_trace(nullptr);
      checker->finish();
      r.seconds = seconds_between(t0, Steady::now());
      r.ok = w.check() && checker->report().ok() &&
             independence->report().ok();
      break;
    }
    case Config::kProfiled: {
      // What util::ProfileSession attaches for --profile=... --congestion.
      const auto t0 = Steady::now();
      scm::Profiler::Options options;
      options.witness = true;
      options.load_map = true;
      options.congestion = true;
      options.independence = true;
      scm::Profiler profiler(options);
      scm::Machine::set_global_trace(&profiler);
      {
        scm::Machine m;
        w.run(m);
        r.metrics = m.metrics();
      }
      scm::Machine::set_global_trace(nullptr);
      const auto t1 = Steady::now();
      const std::string report = profiler.json_report();
      const auto t2 = Steady::now();
      r.seconds = seconds_between(t0, t2);
      r.export_seconds = seconds_between(t1, t2);
      r.ok = w.check() && !report.empty() &&
             profiler.independence()->report().ok() &&
             profiler.totals().energy == r.metrics.energy &&
             profiler.totals().messages == r.metrics.messages;
      break;
    }
    case Config::kPar: {
      configure_threads(nproc);  // pool start-up is set-up, not run time
      scm::parallel::engine()->reset_stats();
      const auto t0 = Steady::now();
      scm::Machine m;
      w.run(m);
      r.seconds = seconds_between(t0, Steady::now());
      r.metrics = m.metrics();
      r.engine = scm::parallel::engine()->stats();
      configure_threads(1);
      r.ok = w.check();
      break;
    }
  }
  return r;
}

// ---- results ----------------------------------------------------------------

struct Tally {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Ordered (name, value, unit) triples of the final result line.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", rows_[i].value);
      out += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + rows_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

void print_result(const Tally& tally, const MetricSet& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted),
      static_cast<unsigned long long>(tally.failed), metrics.json().c_str());
  std::fflush(stdout);
}

/// One human-readable line per timing: median, sample count, and the
/// highest percentile with at least ten samples beyond it.
void describe_timing(const char* name, const std::vector<double>& xs) {
  const double p = perfbench::highest_supported_percentile(xs.size());
  if (p > 0) {
    std::printf("  %-24s median %.6f s  p%g %.6f s  n=%zu\n", name,
                median(xs), p, perfbench::percentile(xs, p), xs.size());
  } else {
    std::printf("  %-24s median %.6f s  n=%zu (too few for a tail)\n", name,
                median(xs), xs.size());
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Times one set-up (input generation and normalisation) and hands the
/// fresh workload to `out`.
double timed_setup(const Options& opt,
                   std::unique_ptr<perfbench::Workload>& out) {
  const auto t0 = Steady::now();
  auto w = perfbench::make_workload(opt.workload);
  w->setup(opt.seed);
  const double seconds = seconds_between(t0, Steady::now());
  out = std::move(w);
  return seconds;
}

// ---- end-to-end run (--trace 0) ---------------------------------------------

int run_end_to_end(const Options& opt, int nproc) {
  Tally tally;
  perfbench::SpeedProbe probe;
  std::unique_ptr<perfbench::Workload> w;
  std::vector<double> setup_probes{probe.time_once()};
  std::vector<double> setup{timed_setup(opt, w)};
  w->prepare_oracle();

  // Warm-up: interns the phase names and faults in the allocator's pages.
  const RunResult ref = run_config(*w, Config::kBare, nproc);
  tally.add(ref.ok);

  // Each configuration gets a share of the measuring time and at least five
  // runs. The sink-laden ones get more: their runs are longer, so they
  // would otherwise have too few for a steady fastest tenth. Rounds
  // interleave the configurations that still have budget, rotating their
  // order, and the probe runs just before each configuration run.
  std::map<Config, std::vector<double>> times;
  std::map<Config, std::vector<double>> probes;
  std::map<Config, double> spent;
  const std::map<Config, double> budget{
      {Config::kBare, 0.15 * opt.seconds},
      {Config::kChecked, 0.35 * opt.seconds},
      {Config::kProfiled, 0.5 * opt.seconds}};
  for (int rep = 0;; ++rep) {
    bool ran = false;
    for (int k = 0; k < 3; ++k) {
      const Config c = kTimedConfigs[(rep + k) % 3];
      if (times[c].size() >= 5 && spent[c] >= budget.at(c)) continue;
      probes[c].push_back(probe.time_once());
      const RunResult r = run_config(*w, c, nproc);
      tally.add(r.ok && r.metrics == ref.metrics);
      times[c].push_back(r.seconds);
      spent[c] += r.seconds;
      ran = true;
    }
    if (!ran) break;
    // One more set-up per round, so that its median, like the timings',
    // spans the whole run.
    std::unique_ptr<perfbench::Workload> spare;
    setup_probes.push_back(probe.time_once());
    setup.push_back(timed_setup(opt, spare));
  }

  std::printf("workload %s seed %llu\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed));
  const auto scaled_timing = [](const std::string& name,
                                const std::vector<double>& xs,
                                const std::vector<double>& probe_xs) {
    describe_timing(name.c_str(), xs);
    const double fast = perfbench::fast_mean(xs, kFastShare, kFastMin);
    const double probe_fast =
        perfbench::fast_mean(probe_xs, kFastShare, kFastMin);
    const double scaled =
        fast / probe_fast * perfbench::SpeedProbe::kReferenceSeconds;
    std::printf("  %-24s fastest tenth %.6f s, probe %.6f s, scaled %.6f s\n",
                name.c_str(), fast, probe_fast, scaled);
    return scaled;
  };
  const double setup_scaled = scaled_timing("setup_s", setup, setup_probes);
  std::map<Config, double> scaled;
  for (const Config c : kTimedConfigs) {
    scaled[c] = scaled_timing(std::string(config_name(c)) + "_s", times[c],
                              probes[c]);
  }

  MetricSet out;
  out.add("setup_s", setup_scaled, "s");
  out.add("bare_s", scaled[Config::kBare], "s");
  out.add("checked_s", scaled[Config::kChecked], "s");
  out.add("profiled_s", scaled[Config::kProfiled], "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("energy", static_cast<double>(ref.metrics.energy), "hops");
  out.add("depth", static_cast<double>(ref.metrics.depth()), "messages");
  out.add("distance", static_cast<double>(ref.metrics.distance()), "hops");
  print_result(tally, out);
  return 0;
}

// ---- traced run (--trace 1) -------------------------------------------------

/// Times one call of `fn` inside a span named `name` under `parent`.
template <class Fn>
double timed_span(SpanLog& log, std::string name, int parent, Fn&& fn) {
  const ScopedSpan span(log, std::move(name), parent);
  const auto t0 = Steady::now();
  fn();
  return seconds_between(t0, Steady::now());
}

/// The layer with the largest share of `total` among `parts`.
std::string largest_share(const std::vector<std::pair<std::string, double>>&
                              parts,
                          double total) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    if (parts[i].second > parts[best].second) best = i;
  }
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s (%.0f%%)", parts[best].first.c_str(),
                100.0 * parts[best].second / total);
  return buf;
}

using Samples = std::map<std::string, std::vector<double>>;

/// Replays `stream` into each observability sink alone, through its public
/// hooks, timing each and checking its verdict against the reference run.
void replay_sinks(SpanLog& log, int parent, const perfbench::Stream& stream,
                  const scm::Metrics& ref, Samples& t, Tally& tally) {
  const ScopedSpan sinks(log, "replay:sinks", parent);
  const auto replay_into = [&](const char* layer, scm::TraceSink& sink) {
    return timed_span(log, layer, sinks.id(),
                      [&] { perfbench::replay_sink(stream, sink); });
  };
  {
    scm::ConformanceChecker::Config cfg;
    cfg.strict = false;
    scm::ConformanceChecker checker(cfg);
    t["sink.conformance_s"].push_back(
        timed_span(log, "sink.conformance", sinks.id(), [&] {
          perfbench::replay_sink(stream, checker);
          checker.finish();
        }));
    tally.add(checker.report().ok());
  }
  {
    scm::IndependenceChecker::Config cfg;
    cfg.strict = false;
    scm::IndependenceChecker checker(cfg);
    t["sink.independence_s"].push_back(
        replay_into("sink.independence", checker));
    tally.add(checker.report().ok());
  }
  {
    // The witness has no sink of its own: its cost is what it adds to the
    // phase-tree profiler.
    scm::Profiler::Options tree_only;
    tree_only.independence = false;
    scm::Profiler profiler(tree_only);
    const double tree = replay_into("sink.profiler", profiler);
    t["sink.profiler_s"].push_back(tree);
    tally.add(profiler.totals().energy == ref.energy);

    scm::Profiler::Options witnessed = tree_only;
    witnessed.witness = true;
    scm::Profiler with_witness(witnessed);
    t["sink.witness_s"].push_back(
        replay_into("sink.profiler+witness", with_witness) - tree);
    tally.add(with_witness.critical_path().depth_chain.hop_count() ==
              ref.depth());
  }
  {
    scm::LoadMap load;
    t["sink.loadmap_s"].push_back(replay_into("sink.loadmap", load));
    tally.add(load.messages() == ref.messages);
  }
  {
    scm::CongestionMap congestion;
    t["sink.congestion_s"].push_back(
        replay_into("sink.congestion", congestion));
    tally.add(congestion.total_occupancy() == ref.energy);
  }
}

/// Replays `stream` through a Machine with the engine at each of
/// `threads` (the last is nproc), then into a ShardedCongestionMap under
/// the engine at nproc threads.
void replay_engine(SpanLog& log, int parent, std::pair<int, int> threads,
                   perfbench::Stream& stream, const scm::Metrics& ref,
                   Samples& t, Tally& tally) {
  const ScopedSpan replay(log, "replay:engine", parent);
  for (const int n : {threads.first, threads.second}) {
    configure_threads(n);
    scm::Metrics replayed;
    const double s =
        timed_span(log, "engine.charge@" + std::to_string(n), replay.id(),
                   [&] { replayed = perfbench::replay_machine(stream); });
    t[n == threads.second ? "engine.charge_s" : "engine.charge_t2_s"]
        .push_back(s);
    tally.add(same_model_metrics(replayed, ref));
  }
  scm::parallel::ShardedCongestionMap sharded(scm::parallel::config());
  t["engine.sharded_congestion_s"].push_back(
      timed_span(log, "engine.sharded_congestion", replay.id(),
                 [&] { perfbench::replay_sink(stream, sharded); }));
  tally.add(sharded.total_occupancy() == ref.energy);
  configure_threads(1);
}

int run_traced(const Options& opt, int nproc) {
  Tally tally;
  SpanLog log;
  const int root = log.open("workload:" + opt.workload, -1);

  std::unique_ptr<perfbench::Workload> w;
  {
    const ScopedSpan span(log, "setup", root);
    (void)timed_setup(opt, w);
    w->prepare_oracle();
  }
  const RunResult ref = run_config(*w, Config::kBare, nproc);
  tally.add(ref.ok);

  const int t2 = std::min(2, nproc);
  Samples t;  // per-layer samples
  perfbench::Recorder recorder;
  perfbench::StreamCounts counts;
  scm::parallel::EngineStats engine;

  const auto start = Steady::now();
  for (int pass = 0;
       pass < 1 || seconds_between(start, Steady::now()) < opt.seconds;
       ++pass) {
    // Live configurations.
    for (const Config c : kConfigs) {
      const ScopedSpan span(log, std::string("config:") + config_name(c),
                            root);
      const RunResult r = run_config(*w, c, nproc);
      tally.add(r.ok && r.metrics == ref.metrics);
      t[std::string(config_name(c)) + "_s"].push_back(r.seconds);
      if (c == Config::kProfiled) t["profiler.export_s"].push_back(
          r.export_seconds);
      if (c == Config::kPar) engine = r.engine;
    }

    // Record the stream once per pass (the overhead is a layer too).
    recorder.clear();
    scm::Metrics recorded;
    const double live = timed_span(log, "record", root, [&] {
      scm::Machine::set_global_trace(&recorder);
      {
        scm::Machine m;
        w->run(m);
        recorded = m.metrics();
      }
      scm::Machine::set_global_trace(nullptr);
    });
    perfbench::Stream& stream = recorder.stream();
    tally.add(w->check() && recorded == ref.metrics &&
              stream.counts.resets == 1 &&
              (pass == 0 || stream.counts == counts));
    counts = stream.counts;
    t["trace.overhead_s"].push_back(live - t["bare_s"].back());

    // Machine charging alone.
    {
      const ScopedSpan replay(log, "replay:machine", root);
      scm::Metrics replayed;
      t["machine.charge_s"].push_back(
          timed_span(log, "machine.charge", replay.id(),
                     [&] { replayed = perfbench::replay_machine(stream); }));
      tally.add(same_model_metrics(replayed, ref.metrics));
    }
    replay_sinks(log, root, stream, ref.metrics, t, tally);
    replay_engine(log, root, {t2, nproc}, stream, ref.metrics, t, tally);
  }

  auto med = [&](const char* key) { return median(t[key]); };
  const double bare = med("bare_s");
  const double charge = med("machine.charge_s");
  const double algo = bare - charge;
  const double charged = static_cast<double>(counts.bulk_entries) +
                         static_cast<double>(counts.scalar_sends);

  // Largest layer share of each end-to-end timing.
  const std::string bare_top = largest_share(
      {{"host.algo", algo}, {"machine.charge", charge}}, bare);
  const std::string checked_top = largest_share(
      {{"host.algo", algo},
       {"machine.charge", charge},
       {"sink.conformance", med("sink.conformance_s")},
       {"sink.independence", med("sink.independence_s")}},
      med("checked_s"));
  const std::string profiled_top = largest_share(
      {{"host.algo", algo},
       {"machine.charge", charge},
       {"sink.profiler", med("sink.profiler_s")},
       {"sink.witness", med("sink.witness_s")},
       {"sink.loadmap", med("sink.loadmap_s")},
       {"sink.congestion", med("sink.congestion_s")},
       {"sink.independence", med("sink.independence_s")},
       {"profiler.export", med("profiler.export_s")}},
      med("profiled_s"));

  std::printf("workload %s seed %llu nproc %d engine threads %d and %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              nproc, t2, nproc);
  for (const auto& [name, xs] : t) describe_timing(name.c_str(), xs);
  std::printf("  largest share of bare_s:     %s\n", bare_top.c_str());
  std::printf("  largest share of checked_s:  %s\n", checked_top.c_str());
  std::printf("  largest share of profiled_s: %s\n", profiled_top.c_str());
  std::printf("  par_s / bare_s = %.3f, engine.charge_s / machine.charge_s = "
              "%.3f at %d threads\n",
              med("par_s") / bare, med("engine.charge_s") / charge, nproc);

  MetricSet out;
  out.add("machine.charge_s", charge, "s");
  out.add("host.algo_s", algo, "s");
  out.add("machine.scalar_sends", static_cast<double>(counts.scalar_sends),
          "count");
  out.add("machine.bulk_batches", static_cast<double>(counts.bulk_batches),
          "count");
  out.add("machine.bulk_entries", static_cast<double>(counts.bulk_entries),
          "count");
  out.add("machine.phase_enters", static_cast<double>(counts.phase_enters),
          "count");
  out.add("machine.bulk_share",
          charged > 0 ? static_cast<double>(counts.bulk_entries) / charged : 0,
          "ratio");
  out.add("sink.dispatches", static_cast<double>(counts.dispatches), "count");
  for (const char* key :
       {"sink.conformance_s", "sink.independence_s", "sink.profiler_s",
        "sink.witness_s", "sink.loadmap_s", "sink.congestion_s",
        "profiler.export_s", "engine.charge_t2_s", "engine.charge_s",
        "engine.sharded_congestion_s"}) {
    out.add(key, med(key), "s");
  }
  out.add("engine.parallel_batches",
          static_cast<double>(engine.parallel_batches), "count");
  out.add("engine.downgraded_batches",
          static_cast<double>(engine.downgraded_batches), "count");
  out.add("engine.parallel_share",
          counts.bulk_entries > 0
              ? static_cast<double>(engine.parallel_messages) /
                    static_cast<double>(counts.bulk_entries)
              : 0,
          "ratio");
  out.add("engine.threads", nproc, "count");
  out.add("engine.par_s", med("par_s"), "s");
  out.add("trace.overhead_s", med("trace.overhead_s"), "s");

  log.close(root);
  if (!opt.spans_path.empty()) {
    std::ofstream file(opt.spans_path);
    file << "{\n  \"workload\": \"" << opt.workload << "\",\n  \"seed\": "
         << opt.seed << ",\n  \"nproc\": " << nproc
         << ",\n  \"engine_threads\": [" << t2 << ", " << nproc
         << "],\n  \"largest_share\": {\"bare_s\": \"" << bare_top
         << "\", \"checked_s\": \"" << checked_top
         << "\", \"profiled_s\": \"" << profiled_top
         << "\"},\n  \"metrics\": " << out.json()
         << ",\n  \"spans\": " << log.json() << "\n}\n";
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans_path.c_str());
      return 1;
    }
  }
  print_result(tally, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt) ||
      perfbench::make_workload(opt.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: scm_perfbench --workload bitonic|scan|tree --seed N "
                 "--seconds S --trace 0|1 [--spans PATH]\n");
    return 2;
  }
  const int nproc = available_cpus();
  configure_threads(1);
  return opt.trace ? run_traced(opt, nproc) : run_end_to_end(opt, nproc);
}
