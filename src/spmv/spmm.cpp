#include "spmv/spmm.hpp"

#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/zorder.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace scm {

std::vector<std::vector<double>> spmv_multi(
    Machine& machine, const CooMatrix& a,
    const std::vector<std::vector<double>>& xs) {
  if (!a.valid()) throw std::invalid_argument("spmv_multi: invalid matrix");
  for (const auto& x : xs) {
    if (static_cast<index_t>(x.size()) != a.n_cols()) {
      throw std::invalid_argument("spmv_multi: x size mismatch");
    }
  }
  Machine::PhaseScope scope(machine, "spmv_multi");
  const index_t m = a.nnz();
  const index_t n_rows = a.n_rows();
  const index_t n_cols = a.n_cols();
  std::vector<std::vector<double>> ys(
      xs.size(), std::vector<double>(static_cast<size_t>(n_rows), 0.0));
  if (m == 0 || xs.empty()) return ys;

  const index_t mat_side = square_side_for(m);
  const Rect x_rect = square_at({0, mat_side}, square_side_for(n_cols));
  GridArray<Triple> triples = GridArray<Triple>::from_values_square(
      {0, 0}, a.entries(), Layout::kZOrder);

  // --- paid once: structure sorts, leader flags, routing permutation ---
  GridArray<Triple> by_col = mergesort2d(machine, triples, TripleByCol{});
  const std::vector<char> col_leader = segment_heads(
      machine, by_col, [](const Triple& t) { return t.col; }, m);
  if (m > 1) machine.op(m - 1);
  GridArray<Triple> by_col_z = route_permutation(
      machine, by_col, by_col.region(), Layout::kZOrder);

  GridArray<Triple> by_row = mergesort2d(machine, by_col_z, TripleByRow{});
  GridArray<Triple> by_row_z = route_permutation(
      machine, by_row, by_row.region(), Layout::kZOrder);
  std::vector<char> row_leader(static_cast<size_t>(m), 0);
  for (index_t i = 0; i < m; ++i) {
    row_leader[static_cast<size_t>(i)] =
        (i == 0 || by_row_z[i].value.row != by_row_z[i - 1].value.row) ? 1
                                                                       : 0;
  }
  // The by-col -> by-row position mapping is fixed by the stable sort.
  std::vector<index_t> col_to_row_pos(static_cast<size_t>(m));
  {
    std::vector<index_t> order(static_cast<size_t>(m));
    std::iota(order.begin(), order.end(), index_t{0});
    std::stable_sort(order.begin(), order.end(), [&](index_t x, index_t y) {
      return by_col_z[x].value.row < by_col_z[y].value.row;
    });
    for (index_t pos = 0; pos < m; ++pos) {
      col_to_row_pos[static_cast<size_t>(order[static_cast<size_t>(pos)])] =
          pos;
    }
  }

  // --- per vector: fetch, broadcast, multiply, route, sum, deliver ------
  for (size_t v = 0; v < xs.size(); ++v) {
    const std::vector<double>& x = xs[v];
    GridArray<double> x_grid =
        GridArray<double>::from_values(x_rect, Layout::kRowMajor, x);

    GridArray<Seg<double>> fan(by_col_z.region(), Layout::kZOrder, m);
    for (index_t j = 0; j < m; ++j) {
      Clock clock = by_col_z[j].clock;
      double value = 0.0;
      if (col_leader[static_cast<size_t>(j)]) {
        const index_t col = by_col_z[j].value.col;
        const Coord here = by_col_z.coord(j);
        const Coord there = x_grid.coord(col);
        const Clock req = machine.send(here, there, clock);
        clock = machine.send(there, here,
                             Clock::join(req, x_grid[col].clock));
        value = x[static_cast<size_t>(col)];
      }
      fan[j] = Cell<Seg<double>>{
          Seg<double>{value, col_leader[static_cast<size_t>(j)] != 0}, clock};
      machine.op();
    }
    GridArray<Seg<double>> fanned = segmented_scan(machine, fan, First{});

    // Multiply locally, route along the static permutation into row order.
    GridArray<Seg<double>> sums(by_row_z.region(), Layout::kZOrder, m);
    for (index_t j = 0; j < m; ++j) {
      const double product =
          by_col_z[j].value.value * fanned[j].value.value;
      machine.op();
      const index_t dst = col_to_row_pos[static_cast<size_t>(j)];
      const Clock moved =
          machine.send(by_col_z.coord(j), sums.coord(dst),
                       Clock::join(by_col_z[j].clock, fanned[j].clock));
      sums[dst] = Cell<Seg<double>>{
          Seg<double>{product, row_leader[static_cast<size_t>(dst)] != 0},
          moved};
    }
    GridArray<Seg<double>> summed = segmented_scan(machine, sums, Plus{});

    for (index_t j = 0; j < m; ++j) {
      const bool last =
          j + 1 == m || row_leader[static_cast<size_t>(j + 1)] != 0;
      if (!last) continue;
      ys[v][static_cast<size_t>(by_row_z[j].value.row)] =
          summed[j].value.value;
      machine.observe(summed[j].clock);
    }
  }
  return ys;
}

}  // namespace scm
