// The three benchmark workloads. Each is made from a seed (set-up), runs
// one simulated execution on a given Machine, and checks that execution's
// output against a host oracle that shares no code with the spatial
// algorithm.
#pragma once

#include "spatial/machine.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// SplitMix64: a small, platform-stable generator, so a seed names the
/// same inputs on every host.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [0, bound), bound >= 1.
  std::int64_t below(std::int64_t bound) {
    return static_cast<std::int64_t>(next() %
                                     static_cast<std::uint64_t>(bound));
  }
  /// Uniform double in [0, 1).
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Edges of a uniformly random labeled tree on n >= 2 vertices, decoded
/// from a random Pruefer sequence (edge order = decoding order).
[[nodiscard]] std::vector<std::pair<std::int64_t, std::int64_t>> pruefer_tree(
    Rng& rng, std::int64_t n);

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Builds the inputs from `seed` (the timed set-up: input generation and
  /// any input normalisation).
  virtual void setup(std::uint64_t seed) = 0;

  /// Computes the host oracle for the current inputs (untimed).
  virtual void prepare_oracle() = 0;

  /// One simulated execution on `m`; keeps the output for check().
  virtual void run(scm::Machine& m) = 0;

  /// True when the last run's output equals the oracle.
  [[nodiscard]] virtual bool check() const = 0;
};

/// "bitonic", "scan" or "tree"; nullptr for any other name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
