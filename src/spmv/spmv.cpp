#include "spmv/spmv.hpp"

#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/zorder.hpp"

#include <stdexcept>

namespace scm {

SpmvResult spmv(Machine& machine, const CooMatrix& a,
                const std::vector<double>& x) {
  if (!a.valid()) throw std::invalid_argument("spmv: invalid COO matrix");
  if (static_cast<index_t>(x.size()) != a.n_cols()) {
    throw std::invalid_argument("spmv: x size does not match matrix columns");
  }
  Machine::PhaseScope scope(machine, "spmv");
  const index_t m = a.nnz();
  const index_t n_rows = a.n_rows();
  const index_t n_cols = a.n_cols();

  // Placement: matrix at the origin; x and y subgrids adjacent.
  const index_t mat_side = square_side_for(std::max<index_t>(m, 1));
  const index_t x_side = square_side_for(n_cols);
  const index_t y_side = square_side_for(n_rows);
  const Rect x_rect = square_at({0, mat_side}, x_side);
  const Rect y_rect = square_at({0, mat_side + x_side}, y_side);
  GridArray<double> x_grid =
      GridArray<double>::from_values(x_rect, Layout::kRowMajor, x);
  GridArray<double> y_grid(y_rect, Layout::kRowMajor, n_rows);
  std::vector<double> y(static_cast<size_t>(n_rows), 0.0);
  if (m == 0) return SpmvResult{std::move(y), std::move(y_grid)};

  GridArray<Triple> triples = GridArray<Triple>::from_values_square(
      {0, 0}, a.entries(), Layout::kZOrder);

  // Step 1: sort by column index.
  GridArray<Triple> by_col = mergesort2d(machine, triples, TripleByCol{});

  // Step 2: column leaders, one comparison per neighbour hand-off.
  const std::vector<char> col_leader = segment_heads(
      machine, by_col, [](const Triple& t) { return t.col; }, m);
  if (m > 1) machine.op(m - 1);

  // Step 3: leaders fetch x_j; segmented broadcast along the segments.
  for (index_t j = 0; j < m; ++j) {
    if (!col_leader[static_cast<size_t>(j)]) continue;
    const index_t col = by_col[j].value.col;
    const Coord here = by_col.coord(j);
    const Coord there = x_grid.coord(col);
    const Clock req = machine.send(here, there, by_col[j].clock);
    const Clock resp =
        machine.send(there, here, Clock::join(req, x_grid[col].clock));
    by_col[j].clock = resp;
  }
  GridArray<Triple> by_col_z =
      route_permutation(machine, by_col, by_col.region(), Layout::kZOrder);
  GridArray<Seg<double>> xseg(by_col_z.region(), Layout::kZOrder, m);
  for (index_t j = 0; j < m; ++j) {
    const bool head = col_leader[static_cast<size_t>(j)] != 0;
    xseg[j] = Cell<Seg<double>>{
        Seg<double>{head ? x[static_cast<size_t>(by_col_z[j].value.col)] : 0.0,
                    head},
        by_col_z[j].clock};
    machine.op();
  }
  GridArray<Seg<double>> fanned = segmented_scan(machine, xseg, First{});

  // Step 4: local partial products.
  GridArray<Triple> products(by_col_z.region(), Layout::kZOrder, m);
  for (index_t j = 0; j < m; ++j) {
    Triple t = by_col_z[j].value;
    t.value *= fanned[j].value.value;
    products[j] = Cell<Triple>{
        t, Clock::join(by_col_z[j].clock, fanned[j].clock)};
    machine.op();
  }

  // Step 5: sort the partial products by row index.
  GridArray<Triple> by_row = mergesort2d(machine, products, TripleByRow{});

  // Step 6: row leaders.
  const std::vector<char> row_leader = segment_heads(
      machine, by_row, [](const Triple& t) { return t.row; }, m);
  if (m > 1) machine.op(m - 1);

  // Step 7: segmented sum per row; the segment's last entry hands the row
  // total to the row leader, which delivers it to the output subgrid.
  GridArray<Triple> by_row_z =
      route_permutation(machine, by_row, by_row.region(), Layout::kZOrder);
  GridArray<Seg<double>> sums(by_row_z.region(), Layout::kZOrder, m);
  for (index_t j = 0; j < m; ++j) {
    sums[j] = Cell<Seg<double>>{
        Seg<double>{by_row_z[j].value.value,
                    row_leader[static_cast<size_t>(j)] != 0},
        by_row_z[j].clock};
    machine.op();
  }
  GridArray<Seg<double>> summed = segmented_scan(machine, sums, Plus{});

  index_t seg_start = 0;
  for (index_t j = 0; j < m; ++j) {
    const bool last =
        j + 1 == m || row_leader[static_cast<size_t>(j + 1)] != 0;
    if (row_leader[static_cast<size_t>(j)]) seg_start = j;
    if (!last) continue;
    const index_t row = by_row_z[j].value.row;
    const double total = summed[j].value.value;
    // Hand the total to the row leader...
    const Clock at_leader = machine.send(by_row_z.coord(j),
                                         by_row_z.coord(seg_start),
                                         summed[j].clock);
    // ...which delivers (i, y_i) to the output subgrid.
    const Clock delivered = machine.send(by_row_z.coord(seg_start),
                                         y_grid.coord(row), at_leader);
    y[static_cast<size_t>(row)] = total;
    y_grid[row] = Cell<double>{total, delivered};
  }
  return SpmvResult{std::move(y), std::move(y_grid)};
}

}  // namespace scm
