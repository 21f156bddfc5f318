#include "pram/crcw.hpp"

#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/zorder.hpp"

#include <optional>
#include <string>

namespace scm::pram {

namespace {

Coord mem_coord(const Rect& mem, index_t cell) {
  return layout_coord(mem, Layout::kRowMajor, cell);
}

/// One access tuple; `cell == sentinel` marks a processor that does not
/// participate in this sub-step (sentinels sort to the end).
struct AccessTuple {
  index_t cell{0};
  index_t proc{0};
  Word value{0};

  friend bool operator==(const AccessTuple&, const AccessTuple&) = default;
};

struct TupleLess {
  bool operator()(const AccessTuple& a, const AccessTuple& b) const {
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.proc < b.proc;
  }
};

struct ProcLess {
  bool operator()(const AccessTuple& a, const AccessTuple& b) const {
    return a.proc < b.proc;
  }
};

/// Segment heads over the non-sentinel prefix (sentinel tuples sort
/// last): one round of neighbour hand-offs, one comparison per hand-off.
std::vector<char> detect_leaders(Machine& machine,
                                 GridArray<AccessTuple>& sorted,
                                 index_t sentinel) {
  index_t count = 0;
  while (count < sorted.size() && sorted[count].value.cell != sentinel) {
    ++count;
  }
  std::vector<char> leader = segment_heads(
      machine, sorted, [](const AccessTuple& t) { return t.cell; }, count);
  if (count > 1) machine.op(count - 1);
  return leader;
}

}  // namespace

std::vector<Word> simulate_crcw(Machine& machine, const Program& prog,
                                std::vector<Word> memory) {
  validate(prog, memory);
  Machine::PhaseScope scope(machine, "pram_crcw");
  const index_t p = prog.num_processors();
  const index_t mc = prog.num_cells();
  const index_t sentinel = mc;  // greater than any real cell index
  const PramPlacement place = default_placement(p, mc);

  std::vector<ProcessorState> state(static_cast<size_t>(p));
  std::vector<Clock> proc_clock(static_cast<size_t>(p));
  std::vector<Clock> mem_clock(static_cast<size_t>(mc));

  for (index_t t = 0; t < prog.num_steps(); ++t) {
    // ---- Read sub-step -------------------------------------------------
    GridArray<AccessTuple> tuples(place.processors, Layout::kZOrder, p);
    std::vector<char> requested(static_cast<size_t>(p), 0);
    for (index_t i = 0; i < p; ++i) {
      const std::optional<index_t> req =
          prog.read_request(t, i, state[static_cast<size_t>(i)]);
      if (req && (*req < 0 || *req >= mc)) {
        throw std::invalid_argument("PRAM read outside memory");
      }
      requested[static_cast<size_t>(i)] = req.has_value() ? 1 : 0;
      tuples[i] = Cell<AccessTuple>{
          AccessTuple{req ? *req : sentinel, i, 0},
          proc_clock[static_cast<size_t>(i)]};
    }

    // Sort by (cell, processor); this is already a strict total order, so
    // the raw merge machinery applies directly.
    GridArray<AccessTuple> by_cell = mergesort2d(machine, tuples, TupleLess{});
    std::vector<char> leader = detect_leaders(machine, by_cell, sentinel);

    // Leaders fetch their cell with one round trip.
    for (index_t j = 0; j < p; ++j) {
      if (!leader[static_cast<size_t>(j)]) continue;
      const index_t cell = by_cell[j].value.cell;
      const Coord here = by_cell.coord(j);
      const Coord there = mem_coord(place.memory, cell);
      const Clock req = machine.send(here, there, by_cell[j].clock);
      const Clock resp = machine.send(
          there, here, Clock::join(req, mem_clock[static_cast<size_t>(cell)]));
      by_cell[j].value.value = memory[static_cast<size_t>(cell)];
      by_cell[j].clock = resp;
    }

    // Segmented broadcast of the fetched values along the cell segments.
    GridArray<AccessTuple> by_cell_z = route_permutation(
        machine, by_cell, place.processors, Layout::kZOrder);
    GridArray<Seg<Word>> seg(place.processors, Layout::kZOrder, p);
    for (index_t j = 0; j < p; ++j) {
      seg[j] = Cell<Seg<Word>>{
          Seg<Word>{by_cell_z[j].value.value,
                    leader[static_cast<size_t>(j)] != 0 ||
                        by_cell_z[j].value.cell == sentinel},
          by_cell_z[j].clock};
      machine.op();
    }
    GridArray<Seg<Word>> fanned = segmented_scan(machine, seg, First{});
    for (index_t j = 0; j < p; ++j) {
      by_cell_z[j].value.value = fanned[j].value.value;
      by_cell_z[j].clock = Clock::join(by_cell_z[j].clock, fanned[j].clock);
    }

    // Sort back by processor index and land each tuple on its processor's
    // Z-order location.
    GridArray<AccessTuple> by_proc =
        mergesort2d(machine, by_cell_z, ProcLess{});
    GridArray<AccessTuple> delivered = route_permutation(
        machine, by_proc, place.processors, Layout::kZOrder);

    // ---- Execute + write sub-step --------------------------------------
    GridArray<AccessTuple> wtuples(place.processors, Layout::kZOrder, p);
    for (index_t i = 0; i < p; ++i) {
      assert(delivered[i].value.proc == i);
      proc_clock[static_cast<size_t>(i)] = Clock::join(
          proc_clock[static_cast<size_t>(i)], delivered[i].clock);
      std::optional<Word> read;
      if (requested[static_cast<size_t>(i)]) {
        read = delivered[i].value.value;
      }
      std::optional<WriteOp> w =
          prog.execute(t, i, state[static_cast<size_t>(i)], read);
      machine.op();
      if (w && (w->cell < 0 || w->cell >= mc)) {
        throw std::invalid_argument("PRAM write outside memory");
      }
      wtuples[i] = Cell<AccessTuple>{
          AccessTuple{w ? w->cell : sentinel, i, w ? w->value : 0},
          proc_clock[static_cast<size_t>(i)]};
    }

    GridArray<AccessTuple> wsorted =
        mergesort2d(machine, wtuples, TupleLess{});
    std::vector<char> wleader = detect_leaders(machine, wsorted, sentinel);
    for (index_t j = 0; j < p; ++j) {
      if (!wleader[static_cast<size_t>(j)]) continue;
      const index_t cell = wsorted[j].value.cell;
      mem_clock[static_cast<size_t>(cell)] =
          machine.send(wsorted.coord(j), mem_coord(place.memory, cell),
                       wsorted[j].clock);
      memory[static_cast<size_t>(cell)] = wsorted[j].value.value;
    }
  }
  return memory;
}

}  // namespace scm::pram
