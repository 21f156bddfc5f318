#include "testing/runner.hpp"

#include "spatial/bulk_ab.hpp"
#include "spatial/congestion.hpp"
#include "spatial/independence.hpp"
#include "spatial/validate.hpp"
#include "testing/shrink.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

namespace scm::testing {

namespace {

double metric_of(const Metrics& m, const std::string& name) {
  if (name == "energy") return static_cast<double>(m.energy);
  if (name == "depth") return static_cast<double>(m.depth());
  if (name == "distance") return static_cast<double>(m.distance());
  if (name == "messages") return static_cast<double>(m.messages);
  return -1.0;
}

ConformanceChecker::Config checker_config() {
  ConformanceChecker::Config config;
  // Violations are fuzz findings to report with a replay token, not
  // aborts: non-strict even under SCM_STRICT_MODEL.
  config.strict = false;
  return config;
}

IndependenceChecker::Config independence_config() {
  IndependenceChecker::Config config;
  // Findings, not aborts — same policy as the conformance checker above.
  config.strict = false;
  return config;
}

/// One traced execution: outcome, machine totals, conformance and batch-
/// independence verdicts, plus (on metamorphic cadence) the link-level
/// congestion signature the translation/reflection oracles compare.
struct Execution {
  CaseOutcome outcome;
  Metrics metrics;
  bool conformance_ok{true};
  std::string conformance_report;
  bool independence_ok{true};
  std::string independence_report;
  /// Sorted per-link occupancy values (CongestionMap::occupancy_multiset);
  /// empty unless congestion tracking was requested.
  std::vector<index_t> link_multiset;
  index_t peak_link_load{0};
};

Execution execute(const Property& prop, const CaseInput& in,
                  bool track_congestion = false) {
  Machine m;
  ConformanceChecker checker(checker_config());
  IndependenceChecker independence(independence_config());
  FanoutSink fanout(std::vector<TraceSink*>{&checker, &independence});
  // Congestion tracking costs O(distance) per message, so it rides the
  // metamorphic cadence only.
  CongestionMap congestion;
  if (track_congestion) fanout.add(&congestion);
  m.set_trace(&fanout);
  Execution result;
  // A bug in the code under test may surface as an exception (a broken
  // sort invariant turning a count negative, say) long before any oracle
  // runs. That is a finding to report with a replay token, not a reason
  // to lose the whole fuzz run.
  try {
    result.outcome = prop.run(m, in);
  } catch (const std::exception& e) {
    result.outcome.ok = false;
    result.outcome.failure = std::string("uncaught exception: ") + e.what();
  } catch (...) {
    result.outcome.ok = false;
    result.outcome.failure = "uncaught non-standard exception";
  }
  checker.verify(m);
  m.set_trace(nullptr);
  result.metrics = m.metrics();
  result.conformance_ok = checker.report().ok();
  if (!result.conformance_ok) {
    result.conformance_report = checker.report().str();
  }
  result.independence_ok = independence.report().ok();
  if (!result.independence_ok) {
    result.independence_report = independence.report().str();
  }
  if (track_congestion) {
    result.link_multiset = congestion.occupancy_multiset();
    result.peak_link_load = congestion.max_link_load();
  }
  return result;
}

/// Executes a metamorphic variant that must reproduce `base` exactly: all
/// metrics, the link-occupancy multiset, and a passing functional verdict.
/// Returns the failure detail, or "" when the variant matches. `under`
/// names the transform; `side` and `instance` name the variant.
std::string exact_variant_mismatch(const Property& prop,
                                   const CaseInput& variant,
                                   const Execution& base,
                                   const std::string& under, const char* side,
                                   const char* instance) {
  const Execution other = execute(prop, variant, /*track_congestion=*/true);
  std::ostringstream os;
  if (!(other.metrics == base.metrics)) {
    os << "metrics changed under " << under << ": base " << base.metrics.str()
       << " vs " << side << " " << other.metrics.str();
  } else if (other.link_multiset != base.link_multiset) {
    os << "link-occupancy multiset changed under " << under << ": base "
       << base.link_multiset.size() << " links peak " << base.peak_link_load
       << " vs " << side << " " << other.link_multiset.size()
       << " links peak " << other.peak_link_load;
  } else if (!other.outcome.ok) {
    os << instance << " instance failed functionally: "
       << other.outcome.failure;
  }
  return os.str();
}

}  // namespace

std::string FailureRecord::str() const {
  std::ostringstream os;
  os << "FAIL [" << kind << "] " << property << " --replay=" << replay_token
     << "\n";
  os << "  " << detail << "\n";
  os << "  original: " << original.str() << "\n";
  os << "  shrunk:   " << shrunk.str() << " (" << shrink_attempts
     << " shrink attempts)";
  return os.str();
}

FuzzRunner::FuzzRunner(RunnerConfig config, BoundSet bounds)
    : config_(std::move(config)), bounds_(std::move(bounds)) {}

std::optional<std::pair<std::uint64_t, index_t>> FuzzRunner::parse_token(
    const std::string& token) {
  const size_t colon = token.find(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= token.size()) {
    return std::nullopt;
  }
  // Digits only on both sides: stoull/stoll would otherwise accept
  // leading whitespace and signs.
  for (size_t i = 0; i < token.size(); ++i) {
    if (i == colon) continue;
    if (token[i] < '0' || token[i] > '9') return std::nullopt;
  }
  std::uint64_t seed = 0;
  index_t index = 0;
  try {
    size_t used = 0;
    seed = std::stoull(token.substr(0, colon), &used);
    if (used != colon) return std::nullopt;
    const std::string rest = token.substr(colon + 1);
    index = static_cast<index_t>(std::stoll(rest, &used));
    if (used != rest.size() || index < 0) return std::nullopt;
  } catch (...) {
    return std::nullopt;
  }
  return std::make_pair(seed, index);
}

std::optional<FuzzRunner::ReplayToken> FuzzRunner::parse_replay_token(
    const std::string& token) {
  const size_t c1 = token.find(':');
  if (c1 == std::string::npos) return std::nullopt;
  const size_t c2 = token.find(':', c1 + 1);
  const auto head =
      parse_token(c2 == std::string::npos ? token : token.substr(0, c2));
  if (!head) return std::nullopt;
  ReplayToken out;
  out.seed = head->first;
  out.case_index = head->second;
  if (c2 != std::string::npos) {
    const std::string suffix = token.substr(c2 + 1);
    long long threads = 0;
    long long rows = 0;
    long long cols = 0;
    char excess = 0;
    if (std::sscanf(suffix.c_str(), "t%lldx%lldx%lld%c", &threads, &rows,
                    &cols, &excess) != 3 ||
        threads < 1 || rows < 1 || cols < 1) {
      return std::nullopt;
    }
    parallel::Config cfg;
    cfg.threads = static_cast<int>(threads);
    cfg.tile_rows = static_cast<index_t>(rows);
    cfg.tile_cols = static_cast<index_t>(cols);
    cfg.min_parallel_batch = 1;
    out.parallel = cfg;
  }
  return out;
}

std::vector<const Property*> FuzzRunner::selected() const {
  std::vector<const Property*> props;
  for (const Property& p : all_properties()) {
    if (config_.only.empty()) {
      props.push_back(&p);
      continue;
    }
    for (const std::string& name : config_.only) {
      if (p.name == name) {
        props.push_back(&p);
        break;
      }
    }
  }
  return props;
}

CaseInput FuzzRunner::generate_case(const Property& prop,
                                    index_t case_index) const {
  Rng rng(derive_case_seed(config_.seed, case_index));
  index_t hi = prop.max_n;
  if (config_.max_n > 0) hi = std::min(hi, config_.max_n);
  hi = std::max(hi, prop.min_n);
  // Quadratic bias toward small sizes: small instances dominate (cheap,
  // and most bugs reproduce there) while the tail still reaches max_n.
  const double r = rng.real();
  const index_t target =
      prop.min_n +
      static_cast<index_t>(r * r * static_cast<double>(hi - prop.min_n));
  return prop.generate(rng, target);
}

FuzzRunner::Verdict FuzzRunner::evaluate(const Property& prop,
                                         const CaseInput& in,
                                         bool check_metamorphic,
                                         bool check_ab,
                                         bool check_parallel) {
  const Execution base = execute(prop, in, check_metamorphic);
  if (!base.conformance_ok) {
    return {false, "conformance", base.conformance_report};
  }
  if (!base.independence_ok) {
    return {false, "independence", base.independence_report};
  }
  if (!base.outcome.ok) {
    return {false, "functional", base.outcome.failure};
  }
  if (!base.outcome.skip_cost) {
    for (const auto& [metric, budget] : base.outcome.budgets) {
      const double measured = metric_of(base.metrics, metric);
      if (config_.fit) {
        if (budget > 0 && base.outcome.size >= prop.min_n) {
          bounds_.record_ratio(prop.name, metric, measured / budget,
                               prop.min_n);
        }
      } else if (!bounds_.check(prop.name, metric, measured, budget,
                                base.outcome.size)) {
        return {false, "bound:" + metric,
                bounds_.explain(prop.name, metric, measured, budget)};
      }
    }
  }

  if (check_metamorphic && prop.metamorphic_translation) {
    // Translation leaves every message vector unchanged, so ALL metrics —
    // energy, messages, ops, and the (depth, distance) clock — must be
    // bit-identical on the moved grid. It moves every dimension-ordered
    // route rigidly: links relocate but no occupancy value changes, so the
    // multiset over touched links must be bit-identical too.
    const Coord delta{17, -9};
    const CaseInput moved = prop.translate ? prop.translate(in, delta)
                                           : translate_geometry(in, delta);
    std::string detail = exact_variant_mismatch(
        prop, moved, base,
        "translation by (" + std::to_string(delta.row) + "," +
            std::to_string(delta.col) + ")",
        "moved", "translated");
    if (!detail.empty()) {
      return {false, "metamorphic:translation", std::move(detail)};
    }
  }
  if (check_metamorphic && prop.relabel) {
    // A random renaming of the identifier space (vertex labels): the
    // algorithms address through dense normalized ids, so every message
    // vector — hence all metrics and the link-occupancy multiset — must
    // be bit-identical, not merely asymptotically equal.
    const CaseInput renamed =
        prop.relabel(in, in.algo_seed ^ 0x9e3779b97f4a7c15ULL);
    std::string detail = exact_variant_mismatch(prop, renamed, base,
                                                "relabeling", "renamed",
                                                "relabeled");
    if (!detail.empty()) {
      return {false, "metamorphic:relabel", std::move(detail)};
    }
  }
  if (check_metamorphic && prop.reflect) {
    if (const std::optional<CaseInput> mirrored = prop.reflect(in)) {
      // Reflection reverses columns; every message's length is preserved,
      // so energy and depth must match exactly.
      const Execution flipped = execute(prop, *mirrored, /*track_congestion=*/true);
      if (flipped.metrics.energy != base.metrics.energy ||
          flipped.metrics.depth() != base.metrics.depth()) {
        std::ostringstream os;
        os << "energy/depth changed under reflection: base "
           << base.metrics.str() << " vs mirrored " << flipped.metrics.str();
        return {false, "metamorphic:reflection", os.str()};
      }
      if (flipped.peak_link_load != base.peak_link_load) {
        // Column reflection maps the dimension-ordered route set onto its
        // mirror image (east/west link directions swap), a bijection on
        // links — so the peak link load is preserved exactly.
        std::ostringstream os;
        os << "peak link load changed under reflection: base "
           << base.peak_link_load << " vs mirrored "
           << flipped.peak_link_load;
        return {false, "metamorphic:reflection", os.str()};
      }
      if (!flipped.outcome.ok) {
        return {false, "metamorphic:reflection",
                "mirrored instance failed functionally: " +
                    flipped.outcome.failure};
      }
    }
  }

  if (check_ab) {
    // Swallow exceptions inside the A/B body: the base execution above
    // already succeeded, so a throw here could only come from a charging
    // divergence — which the totals comparison reports anyway.
    const AbResult ab = run_ab([&](Machine& machine) {
      try {
        (void)prop.run(machine, in);
      } catch (...) {
      }
    });
    if (!ab.ok()) {
      return {false, "bulk-ab", ab.diff()};
    }
  }

  if (check_parallel) {
    // Seventh oracle: re-execute the case with bulk rounds charged
    // through the sharded parallel engine (min_parallel_batch 1, so
    // every batch takes the parallel path) and assert the Metrics are
    // bit-identical to the base execution. The checkers run too: a
    // parallel-only conformance or independence finding is a real bug.
    parallel::Config cfg;
    cfg.threads = config_.parallel_threads;
    cfg.tile_rows = config_.parallel_tile_rows;
    cfg.tile_cols = config_.parallel_tile_cols;
    cfg.min_parallel_batch = 1;
    const ScopedBulkCharging bulk(true);
    const parallel::ScopedParallelEngine engine(cfg);
    const Execution par = execute(prop, in);
    if (!par.conformance_ok) {
      return {false, "parallel",
              "conformance under parallel engine:\n" +
                  par.conformance_report};
    }
    if (!par.independence_ok) {
      return {false, "parallel",
              "independence under parallel engine:\n" +
                  par.independence_report};
    }
    if (!par.outcome.ok) {
      return {false, "parallel",
              "functional failure under parallel engine: " +
                  par.outcome.failure};
    }
    if (!(par.metrics == base.metrics)) {
      std::ostringstream os;
      os << "metrics diverged under parallel engine (threads="
         << cfg.threads << " tile=" << cfg.tile_cols << "x" << cfg.tile_rows
         << "): base " << base.metrics.str() << " vs parallel "
         << par.metrics.str();
      return {false, "parallel", os.str()};
    }
  }
  return {};
}

FailureRecord FuzzRunner::report_failure(const Property& prop,
                                         const CaseInput& in,
                                         index_t case_index, Verdict first,
                                         bool check_metamorphic,
                                         bool check_ab,
                                         bool check_parallel) {
  FailureRecord rec;
  rec.property = prop.name;
  rec.case_index = case_index;
  {
    std::ostringstream os;
    os << config_.seed << ":" << case_index;
    if (check_parallel && first.kind == "parallel") {
      // Carry the engine shape so the replay reproduces the exact
      // thread/tile decomposition this failure was found under. Other
      // failure kinds reproduce without the engine, so their tokens
      // stay in the plain two-field form.
      os << ":t" << config_.parallel_threads << "x"
         << config_.parallel_tile_rows << "x" << config_.parallel_tile_cols;
    }
    rec.replay_token = os.str();
  }
  rec.kind = std::move(first.kind);
  rec.detail = std::move(first.detail);
  rec.original = in;

  // Shrink under the same checks that caught the failure. Fit mode is
  // paused so shrink candidates do not pollute the fitted ratios.
  const bool was_fitting = config_.fit;
  config_.fit = false;
  ShrinkStats stats;
  rec.shrunk = shrink_case(
      prop, in,
      [&](const CaseInput& cand) {
        return !evaluate(prop, cand, check_metamorphic, check_ab,
                         check_parallel)
                    .ok;
      },
      config_.shrink_attempts, &stats);
  config_.fit = was_fitting;
  rec.shrink_attempts = stats.attempts;
  return rec;
}

FuzzReport FuzzRunner::run(std::ostream& log) {
  FuzzReport report;
  const std::vector<const Property*> props = selected();
  if (props.empty()) {
    log << "fuzz: no properties selected\n";
    return report;
  }
  const auto start = std::chrono::steady_clock::now();
  for (index_t i = 0; i < config_.cases; ++i) {
    if (config_.time_budget_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > config_.time_budget_seconds) {
        log << "fuzz: time budget (" << config_.time_budget_seconds
            << "s) reached after " << report.cases_run << " cases\n";
        break;
      }
    }
    const Property& prop =
        *props[static_cast<size_t>(i) % props.size()];
    const CaseInput in = generate_case(prop, i);
    if (prop.valid && !prop.valid(in)) {
      // A generator emitting invalid instances is itself a bug worth
      // seeing; count it (the smoke tier asserts zero skips).
      ++report.cases_skipped;
      log << "fuzz: SKIP invalid instance " << config_.seed << ":" << i
          << " " << prop.name << " " << in.str() << "\n";
      continue;
    }
    const bool meta = config_.metamorphic_every > 0 &&
                      i % config_.metamorphic_every == 0;
    const bool ab = config_.ab_every > 0 && i % config_.ab_every == 0;
    const bool par =
        config_.parallel_every > 0 && i % config_.parallel_every == 0;
    Verdict verdict = evaluate(prop, in, meta, ab, par);
    ++report.cases_run;
    ++report.per_property[prop.name];
    if (!verdict.ok) {
      FailureRecord rec =
          report_failure(prop, in, i, std::move(verdict), meta, ab, par);
      log << rec.str() << "\n";
      report.failures.push_back(std::move(rec));
    } else if (config_.verbose) {
      log << "ok " << config_.seed << ":" << i << " " << prop.name
          << " n=" << in.n << "\n";
    }
  }
  log << "fuzz: " << report.cases_run << " cases, " << report.failures.size()
      << " failures, " << report.cases_skipped << " skipped, "
      << report.per_property.size() << " properties\n";
  return report;
}

std::optional<FuzzReport> FuzzRunner::replay(const std::string& token,
                                             std::ostream& log) {
  const auto parsed = parse_replay_token(token);
  if (!parsed) return std::nullopt;
  const std::uint64_t seed = parsed->seed;
  const index_t index = parsed->case_index;
  config_.seed = seed;
  if (parsed->parallel) {
    config_.parallel_threads = parsed->parallel->threads;
    config_.parallel_tile_rows = parsed->parallel->tile_rows;
    config_.parallel_tile_cols = parsed->parallel->tile_cols;
  }
  const std::vector<const Property*> props = selected();
  FuzzReport report;
  if (props.empty()) {
    log << "fuzz: no properties selected\n";
    return report;
  }
  const Property& prop =
      *props[static_cast<size_t>(index) % props.size()];
  const CaseInput in = generate_case(prop, index);
  log << "replay " << token << " -> " << prop.name << " " << in.str()
      << "\n";
  if (prop.valid && !prop.valid(in)) {
    ++report.cases_skipped;
    log << "fuzz: instance invalid (generator bug?)\n";
    return report;
  }
  const bool meta = config_.metamorphic_every > 0 &&
                    index % config_.metamorphic_every == 0;
  const bool ab = config_.ab_every > 0 && index % config_.ab_every == 0;
  // A token suffix forces the parallel check under the carried shape;
  // plain tokens follow the cadence the main loop would have applied.
  const bool par = parsed->parallel.has_value() ||
                   (config_.parallel_every > 0 &&
                    index % config_.parallel_every == 0);
  Verdict verdict = evaluate(prop, in, meta, ab, par);
  ++report.cases_run;
  ++report.per_property[prop.name];
  if (!verdict.ok) {
    FailureRecord rec =
        report_failure(prop, in, index, std::move(verdict), meta, ab, par);
    log << rec.str() << "\n";
    report.failures.push_back(std::move(rec));
  } else {
    log << "replay " << token << ": PASS\n";
  }
  return report;
}

}  // namespace scm::testing
