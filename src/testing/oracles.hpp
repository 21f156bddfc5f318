// The functional oracles and budget helper shared by the property bodies
// (testing/property.cpp, testing/property_tree.cpp). An oracle compares a
// run's output with a host reference: it returns true on a match, and on
// a mismatch marks the CaseOutcome failed with a "<what>: ..." detail and
// returns false, so a body reads `if (!expect_...(out, ...)) return ...;`.
#pragma once

#include "testing/property.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace scm::testing {

/// ceil(log2(n)) for n >= 1, and 0 for n <= 1: the log term of budgets.
[[nodiscard]] inline double log2ceil(index_t n) {
  index_t bits = 0;
  index_t v = 1;
  while (v < std::max<index_t>(n, 1)) {
    v <<= 1;
    ++bits;
  }
  return static_cast<double>(bits);
}

/// "index i: got G want W (...)" mismatch formatting for vector oracles.
template <class T>
[[nodiscard]] std::string vec_mismatch(const char* what,
                                       const std::vector<T>& got,
                                       const std::vector<T>& want) {
  std::ostringstream os;
  os << what << ": ";
  if (got.size() != want.size()) {
    os << "size " << got.size() << " want " << want.size();
    return os.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      os << "index " << i << ": got " << got[i] << " want " << want[i];
      return os.str();
    }
  }
  os << "no difference";
  return os.str();
}

/// Marks `out` as a functional failure with `detail`. Always false.
inline bool fail(CaseOutcome& out, std::string detail) {
  out.ok = false;
  out.failure = std::move(detail);
  return false;
}

/// Exact equality, reported with vec_mismatch.
template <class T>
bool expect_equal(CaseOutcome& out, const char* what,
                  const std::vector<T>& got, const std::vector<T>& want) {
  return got == want || fail(out, vec_mismatch(what, got, want));
}

/// `got` must be `keys` in ascending order.
inline bool expect_sorted(CaseOutcome& out, const char* what,
                          const std::vector<std::int64_t>& got,
                          std::vector<std::int64_t> keys) {
  std::sort(keys.begin(), keys.end());
  return expect_equal(out, what, got, keys);
}

/// `got` must be the prefix sums of `keys`: element i sums keys [0, i]
/// when inclusive, keys [0, i) when `exclusive`.
inline bool expect_prefix(CaseOutcome& out, const char* what,
                          const std::vector<std::int64_t>& got,
                          const std::vector<std::int64_t>& keys,
                          bool exclusive) {
  std::vector<std::int64_t> want(keys.size());
  std::int64_t acc = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (exclusive) want[i] = acc;
    acc += keys[i];
    if (!exclusive) want[i] = acc;
  }
  return expect_equal(out, what, got, want);
}

}  // namespace scm::testing
