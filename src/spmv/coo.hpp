// Sparse matrices in coordinate (COO) format — the input format of the
// SpMV algorithms of Section VIII: each non-zero is a triple
// (row, col, value), initially distributed one per processor over a
// sqrt(m) x sqrt(m) subgrid in arbitrary order.
#pragma once

#include "spatial/geometry.hpp"

#include <vector>

namespace scm {

/// One non-zero entry of a sparse matrix.
struct Triple {
  index_t row{0};
  index_t col{0};
  double value{0.0};

  friend bool operator==(const Triple&, const Triple&) = default;
};

/// The two triple orders of the direct SpMV (Theorem VIII.2): by column,
/// to fetch x, then by row, to sum.
struct TripleByCol {
  bool operator()(const Triple& a, const Triple& b) const {
    return a.col < b.col;
  }
};

struct TripleByRow {
  bool operator()(const Triple& a, const Triple& b) const {
    return a.row < b.row;
  }
};

/// An n_rows x n_cols sparse matrix as an unordered list of non-zeros.
class CooMatrix {
 public:
  CooMatrix(index_t n_rows, index_t n_cols) : rows_(n_rows), cols_(n_cols) {}

  /// Appends one non-zero (no duplicate-coordinate checking; duplicates
  /// act additively, as in standard COO semantics).
  void add(index_t row, index_t col, double value);

  [[nodiscard]] index_t n_rows() const { return rows_; }
  [[nodiscard]] index_t n_cols() const { return cols_; }
  [[nodiscard]] index_t nnz() const {
    return static_cast<index_t>(entries_.size());
  }
  [[nodiscard]] const std::vector<Triple>& entries() const { return entries_; }

  /// True when every entry's coordinates are in range.
  [[nodiscard]] bool valid() const;

  /// Entries sorted by (row, col) — the layout the PRAM SpMV baseline
  /// assumes (Section VIII "PRAM Simulation Upper Bound").
  [[nodiscard]] CooMatrix sorted_by_row() const;

  /// Host-side reference product y = A x (used to verify the spatial
  /// implementations).
  [[nodiscard]] std::vector<double> multiply_reference(
      const std::vector<double>& x) const;

 private:
  index_t rows_;
  index_t cols_;
  std::vector<Triple> entries_;
};

}  // namespace scm
