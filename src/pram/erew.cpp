#include "pram/erew.hpp"

#include "spatial/grid_array.hpp"
#include "spatial/zorder.hpp"

#include <map>
#include <optional>
#include <string>

namespace scm::pram {

PramPlacement default_placement(index_t p, index_t m, Coord origin) {
  const index_t proc_side = square_side_for(p);
  const index_t mem_side = square_side_for(m);
  return PramPlacement{
      square_at(origin, proc_side),
      square_at({origin.row, origin.col + proc_side}, mem_side)};
}

namespace {

Coord mem_coord(const Rect& mem, index_t cell) {
  return layout_coord(mem, Layout::kRowMajor, cell);
}

}  // namespace

std::vector<Word> simulate_erew(Machine& machine, const Program& prog,
                                std::vector<Word> memory) {
  validate(prog, memory);
  Machine::PhaseScope scope(machine, "pram_erew");
  const index_t p = prog.num_processors();
  const index_t mc = prog.num_cells();
  const PramPlacement place = default_placement(p, mc);

  std::vector<ProcessorState> state(static_cast<size_t>(p));
  std::vector<Clock> proc_clock(static_cast<size_t>(p));
  std::vector<Clock> mem_clock(static_cast<size_t>(mc));

  auto proc_coord = [&](index_t i) {
    return zorder_coord(place.processors, i);
  };

  for (index_t t = 0; t < prog.num_steps(); ++t) {
    // Read phase: all requests are issued, exclusivity checked, and the
    // values delivered before any execution.
    std::vector<std::optional<index_t>> request(static_cast<size_t>(p));
    std::map<index_t, index_t> readers;
    for (index_t i = 0; i < p; ++i) {
      request[static_cast<size_t>(i)] =
          prog.read_request(t, i, state[static_cast<size_t>(i)]);
      if (request[static_cast<size_t>(i)]) {
        const index_t cell = *request[static_cast<size_t>(i)];
        if (cell < 0 || cell >= mc) {
          throw std::invalid_argument("PRAM read outside memory");
        }
        if (++readers[cell] > 1) {
          throw ConcurrencyViolation("concurrent read of cell " +
                                     std::to_string(cell) + " at step " +
                                     std::to_string(t));
        }
      }
    }
    std::vector<std::optional<Word>> read_value(static_cast<size_t>(p));
    for (index_t i = 0; i < p; ++i) {
      if (!request[static_cast<size_t>(i)]) continue;
      const index_t cell = *request[static_cast<size_t>(i)];
      const Coord pc = proc_coord(i);
      const Coord cc = mem_coord(place.memory, cell);
      const Clock req = machine.send(pc, cc, proc_clock[static_cast<size_t>(i)]);
      const Clock resp = machine.send(
          cc, pc, Clock::join(req, mem_clock[static_cast<size_t>(cell)]));
      read_value[static_cast<size_t>(i)] = memory[static_cast<size_t>(cell)];
      proc_clock[static_cast<size_t>(i)] =
          Clock::join(proc_clock[static_cast<size_t>(i)], resp);
    }

    // Execute phase: local computation, then all writes applied at once.
    std::vector<std::pair<index_t, WriteOp>> writes;
    std::map<index_t, index_t> writers;
    for (index_t i = 0; i < p; ++i) {
      std::optional<WriteOp> w = prog.execute(
          t, i, state[static_cast<size_t>(i)],
          read_value[static_cast<size_t>(i)]);
      machine.op();
      if (!w) continue;
      if (w->cell < 0 || w->cell >= mc) {
        throw std::invalid_argument("PRAM write outside memory");
      }
      if (++writers[w->cell] > 1) {
        throw ConcurrencyViolation("concurrent write of cell " +
                                   std::to_string(w->cell) + " at step " +
                                   std::to_string(t));
      }
      writes.emplace_back(i, *w);
    }
    for (const auto& [i, w] : writes) {
      const Coord pc = proc_coord(i);
      const Coord cc = mem_coord(place.memory, w.cell);
      mem_clock[static_cast<size_t>(w.cell)] =
          machine.send(pc, cc, proc_clock[static_cast<size_t>(i)]);
      memory[static_cast<size_t>(w.cell)] = w.value;
    }
  }
  return memory;
}

}  // namespace scm::pram
