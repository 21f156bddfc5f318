// The fuzz driver binary.
//
//   scm_fuzz --seed=2026 --cases=520 --bounds=testing/bounds.json
//       the ctest smoke tier: N cases round-robin over the property
//       registry, functional + cost + conformance oracles per case,
//       metamorphic and bulk-A/B cadences, exit 1 on any failure.
//
//   scm_fuzz --time-budget=300 ...
//       the nightly tier: wall-clock budgeted instead of case-counted.
//
//   scm_fuzz --replay=<seed>:<case>[:t<threads>x<rows>x<cols>]
//       deterministically re-runs exactly one failing case from its token;
//       the optional suffix (emitted when a failure was found under the
//       sharded parallel engine) replays under that exact engine shape.
//       --parallel-every=N / --parallel-threads=T / --parallel-tile=WxH
//       tune the parallel-oracle cadence of the main loop (0 disables).
//
//   scm_fuzz --fit-bounds --bounds=testing/bounds.json
//            --cases=4000 --fit-seeds=1,2,3
//       re-fits the certificate constants from scratch and writes the
//       bounds file (run after intentionally changing an algorithm's
//       cost). --fit-seeds runs one fitting pass per seed so the fitted
//       max ratios cover a wider tail than a single seed would.
//
// See docs/TESTING.md for the workflow.
#include "testing/bounds.hpp"
#include "testing/property.hpp"
#include "testing/runner.hpp"
#include "util/cli.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream is(csv);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scm::testing;
  scm::util::Cli cli(argc, argv);

  if (cli.has("list")) {
    const auto& props = all_properties();
    for (size_t i = 0; i < props.size(); ++i) {
      std::cout << i << "  " << props[i].name << "  (n in [" << props[i].min_n
                << ", " << props[i].max_n << "])\n";
    }
    cli.warn_unknown();
    return 0;
  }

  RunnerConfig config;
  config.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(config.seed)));
  config.cases = cli.get_int("cases", config.cases);
  config.time_budget_seconds =
      cli.get_double("time-budget", config.time_budget_seconds);
  config.max_n = cli.get_int("max-n", 0);
  config.metamorphic_every =
      cli.get_int("metamorphic-every", config.metamorphic_every);
  config.ab_every = cli.get_int("ab-every", config.ab_every);
  config.parallel_every =
      cli.get_int("parallel-every", config.parallel_every);
  config.parallel_threads = static_cast<int>(
      cli.get_int("parallel-threads", config.parallel_threads));
  if (const std::string tile = cli.get("parallel-tile", ""); !tile.empty()) {
    // WxH, matching SCM_TILE and ProfileSession's --tile.
    long long w = 0;
    long long h = 0;
    if (std::sscanf(tile.c_str(), "%lldx%lld", &w, &h) == 2 && w > 0 &&
        h > 0) {
      config.parallel_tile_cols = static_cast<scm::index_t>(w);
      config.parallel_tile_rows = static_cast<scm::index_t>(h);
    } else {
      std::cerr << "fuzz: bad --parallel-tile '" << tile
                << "' (expected WxH)\n";
      return 2;
    }
  }
  config.shrink_attempts =
      cli.get_int("shrink-attempts", config.shrink_attempts);
  config.fit = cli.has("fit-bounds");
  const std::vector<std::string> fit_seeds =
      split_csv(cli.get("fit-seeds", ""));
  config.only = split_csv(cli.get("props", ""));
  config.verbose = cli.has("verbose");
  const std::string bounds_path = cli.get("bounds", "");
  const std::string replay_token = cli.get("replay", "");
  const std::string out_path = cli.get("out", "");
  if (cli.warn_unknown() > 0) return 2;

  BoundSet bounds;
  if (!bounds_path.empty() && !config.fit) {
    std::optional<BoundSet> loaded = BoundSet::load(bounds_path);
    if (!loaded) {
      std::cerr << "fuzz: cannot load bound certificates from '"
                << bounds_path << "'\n";
      return 2;
    }
    bounds = std::move(*loaded);
  } else if (!config.fit) {
    std::cerr << "fuzz: no --bounds file given; cost certificates are OFF "
                 "(functional, conformance, metamorphic and A/B oracles "
                 "still apply)\n";
  }

  FuzzRunner runner(std::move(config), std::move(bounds));

  FuzzReport report;
  if (!replay_token.empty()) {
    std::optional<FuzzReport> replayed = runner.replay(replay_token,
                                                       std::cout);
    if (!replayed) {
      std::cerr << "fuzz: malformed replay token '" << replay_token
                << "' (expected <seed>:<case>[:t<threads>x<rows>x<cols>])\n";
      return 2;
    }
    report = std::move(*replayed);
  } else if (config.fit && !fit_seeds.empty()) {
    // One fitting pass per master seed: the constants keep the max ratio
    // across all passes, so the fit covers a wider tail of the per-case
    // ratio distribution than any single seed would.
    for (const std::string& seed_str : fit_seeds) {
      std::uint64_t seed = 0;
      try {
        size_t used = 0;
        seed = std::stoull(seed_str, &used);
        if (used != seed_str.size()) throw std::invalid_argument(seed_str);
      } catch (...) {
        std::cerr << "fuzz: bad seed '" << seed_str << "' in --fit-seeds\n";
        return 2;
      }
      runner.set_seed(seed);
      std::cout << "fuzz: fitting pass, seed " << seed << "\n";
      FuzzReport pass = runner.run(std::cout);
      report.cases_run += pass.cases_run;
      report.cases_skipped += pass.cases_skipped;
      for (auto& [name, count] : pass.per_property) {
        report.per_property[name] += count;
      }
      for (FailureRecord& rec : pass.failures) {
        report.failures.push_back(std::move(rec));
      }
    }
  } else {
    report = runner.run(std::cout);
  }

  if (cli.has("fit-bounds")) {
    if (bounds_path.empty()) {
      std::cerr << "fuzz: --fit-bounds needs --bounds=<path> to write\n";
      return 2;
    }
    if (!runner.bounds().save(bounds_path)) {
      std::cerr << "fuzz: cannot write '" << bounds_path << "'\n";
      return 2;
    }
    std::cout << "fuzz: fitted " << runner.bounds().certificates().size()
              << " certificates -> " << bounds_path << "\n";
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "fuzz: cannot write artifact file '" << out_path << "'\n";
      return 2;
    }
    if (report.ok()) {
      out << "no failures\n";
    } else {
      for (const FailureRecord& rec : report.failures) {
        out << rec.str() << "\n\n";
      }
    }
  }

  return report.ok() && report.cases_skipped == 0 ? 0 : 1;
}
