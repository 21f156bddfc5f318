// Microbenchmark of the simulator's cost-attribution hot path.
//
// Every simulated message pays Machine::charge plus a max-clock join, so the
// events/sec of those paths bounds the input sizes every paper-claim bench
// can reach. The shapes cover the attribution regimes the algorithms
// produce:
//   * flat            — no phase scopes (pure counter adds);
//   * single_phase    — one active scope (the common leaf case);
//   * deep_recursive  — D nested scopes with distinct names, the worst
//                       case for per-event name deduplication (bitonic's
//                       per-step scopes under sort/merge/step nesting);
//   * repeated_name   — D nested scopes of one name (mergesort2d stacking
//                       "mergesort2d" at every recursion level), where
//                       costs must be attributed to the name exactly once;
//   * mixed_recursion — alternating sort/merge/step names, the realistic
//                       recursive profile.
//
// The *_profiled / *_witness shapes re-run the common cases with a
// Profiler TraceSink attached (tree only, then tree + critical-path
// witness), bounding the observability tax: the tree profiler must stay
// within 2x of the bare attribution path, per the acceptance bar recorded
// in BENCH_simulator.json.
//
// Results are tracked in BENCH_simulator.json (events/sec before and
// after the interned-PhaseId attribution engine); CI runs this bench with
// --benchmark_min_time=0.01 as a smoke test so regressions on the
// attribution path show up per PR.
#include "bench_common.hpp"

#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/parallel.hpp"
#include "spatial/profile.hpp"

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

namespace {

using namespace scm;

constexpr int kEventsPerBatch = 4096;

// One batch of charged messages under whatever phase stack is active.
// Alternating unit-distance hops: every send is charged (distance 1) and
// runs the full charge + observe attribution path.
void run_event_batch(Machine& m) {
  Clock c{};
  for (int i = 0; i < kEventsPerBatch; ++i) {
    c = m.send({0, i & 1}, {0, (i & 1) ^ 1}, c);
    m.op();
  }
}

void measure(benchmark::State& state, Machine& m) {
  for (auto _ : state) {
    run_event_batch(m);
    benchmark::DoNotOptimize(m.metrics().energy);
  }
  state.SetItemsProcessed(state.iterations() * kEventsPerBatch);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kEventsPerBatch),
      benchmark::Counter::kIsRate);
}

void BM_Flat(benchmark::State& state) {
  Machine m;
  measure(state, m);
}
BENCHMARK(BM_Flat);

void BM_SinglePhase(benchmark::State& state) {
  Machine m;
  m.begin_phase("leaf");
  measure(state, m);
  m.end_phase();
}
BENCHMARK(BM_SinglePhase);

void BM_DeepRecursive(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Machine m;
  for (int d = 0; d < depth; ++d) {
    m.begin_phase("level" + std::to_string(d));
  }
  measure(state, m);
  for (int d = 0; d < depth; ++d) m.end_phase();
}
BENCHMARK(BM_DeepRecursive)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_RepeatedName(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Machine m;
  for (int d = 0; d < depth; ++d) m.begin_phase("mergesort2d");
  measure(state, m);
  for (int d = 0; d < depth; ++d) m.end_phase();
}
BENCHMARK(BM_RepeatedName)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MixedRecursion(benchmark::State& state) {
  // The profile a recursive sort produces: a handful of distinct names,
  // each stacked many times.
  const int depth = static_cast<int>(state.range(0));
  static const std::vector<std::string> names = {
      "mergesort2d", "merge2d", "merge2d/step", "merge2d/base"};
  Machine m;
  for (int d = 0; d < depth; ++d) {
    m.begin_phase(names[static_cast<std::size_t>(d) % names.size()]);
  }
  measure(state, m);
  for (int d = 0; d < depth; ++d) m.end_phase();
}
BENCHMARK(BM_MixedRecursion)->Arg(16)->Arg(64);

// The tree-profiler tax on the common single-scope shape: same event
// batch, with the phase-tree Profiler (witness off) receiving every
// event. Acceptance: <= 2x slower than BM_SinglePhase.
void BM_SinglePhaseProfiled(benchmark::State& state) {
  Machine m;
  Profiler profiler;
  m.set_trace(&profiler);
  m.begin_phase("leaf");
  measure(state, m);
  m.end_phase();
  m.set_trace(nullptr);
}
BENCHMARK(BM_SinglePhaseProfiled);

// Deep distinct-name recursion with the profiler attached: the tree walk
// is O(1) per event (self counters only), so depth must not matter.
void BM_DeepRecursiveProfiled(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Machine m;
  Profiler profiler;
  m.set_trace(&profiler);
  for (int d = 0; d < depth; ++d) {
    m.begin_phase("level" + std::to_string(d));
  }
  measure(state, m);
  for (int d = 0; d < depth; ++d) m.end_phase();
  m.set_trace(nullptr);
}
BENCHMARK(BM_DeepRecursiveProfiled)->Arg(16)->Arg(64);

// The congestion-sink tax on the common single-scope shape: the
// standalone CongestionMap routes every message (O(distance) per event —
// distance 1 here, so this measures its fixed per-message cost).
// Acceptance: <= 2x slower than BM_SinglePhase, matching the profiler's
// bar in BENCH_simulator.json.
void BM_SinglePhaseCongestion(benchmark::State& state) {
  Machine m;
  CongestionMap congestion;
  m.set_trace(&congestion);
  m.begin_phase("leaf");
  measure(state, m);
  m.end_phase();
  m.set_trace(nullptr);
}
BENCHMARK(BM_SinglePhaseCongestion);

// Tree profiler + critical-path witness recorder: adds two hash
// try_emplaces per event, plus an event append whenever the event first
// achieves a depth or distance value. run_event_batch is one dependent
// chain, so every message is a first achiever and this shape pays the
// append per message: the opt-in worst case (--profile with witness on).
void BM_SinglePhaseWitness(benchmark::State& state) {
  Machine m;
  Profiler profiler(Profiler::Options{.witness = true, .load_map = false});
  m.set_trace(&profiler);
  m.begin_phase("leaf");
  // Reset per batch so the witness record stays bounded over the
  // benchmark's many iterations (a real profiled run records one
  // execution); amortized over 4096 events the reset is noise.
  for (auto _ : state) {
    run_event_batch(m);
    benchmark::DoNotOptimize(m.metrics().energy);
    m.reset();
  }
  state.SetItemsProcessed(state.iterations() * kEventsPerBatch);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kEventsPerBatch),
      benchmark::Counter::kIsRate);
  m.end_phase();
  m.set_trace(nullptr);
}
BENCHMARK(BM_SinglePhaseWitness);

// ---- Bulk-charging shapes -------------------------------------------------
//
// The same alternating unit-hop event stream, charged through one
// Machine::send_bulk + op_bulk call per batch instead of 4096 send/op
// pairs. The BM_Bulk* / scalar-shape ratios are the bulk engine's
// amortization win; acceptance (BENCH_simulator.json): >= 3x events/sec
// on the bulk shapes versus their scalar counterparts.

void run_bulk_event_batch(Machine& m, std::vector<MessageEvent>& batch) {
  batch.resize(kEventsPerBatch);
  for (int i = 0; i < kEventsPerBatch; ++i) {
    batch[static_cast<std::size_t>(i)] =
        MessageEvent{{0, i & 1}, {0, (i & 1) ^ 1}, 0, Clock{}, Clock{}};
  }
  m.send_bulk(batch);
  m.op_bulk(kEventsPerBatch);
}

void measure_bulk(benchmark::State& state, Machine& m) {
  std::vector<MessageEvent> batch;
  for (auto _ : state) {
    run_bulk_event_batch(m, batch);
    benchmark::DoNotOptimize(m.metrics().energy);
  }
  state.SetItemsProcessed(state.iterations() * kEventsPerBatch);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kEventsPerBatch),
      benchmark::Counter::kIsRate);
}

void BM_BulkFlat(benchmark::State& state) {
  Machine m;
  measure_bulk(state, m);
}
BENCHMARK(BM_BulkFlat);

void BM_BulkSinglePhase(benchmark::State& state) {
  Machine m;
  m.begin_phase("leaf");
  measure_bulk(state, m);
  m.end_phase();
}
BENCHMARK(BM_BulkSinglePhase);

void BM_BulkDeepRecursive(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Machine m;
  for (int d = 0; d < depth; ++d) {
    m.begin_phase("level" + std::to_string(d));
  }
  measure_bulk(state, m);
  for (int d = 0; d < depth; ++d) m.end_phase();
}
BENCHMARK(BM_BulkDeepRecursive)->Arg(16)->Arg(64);

void BM_BulkSinglePhaseProfiled(benchmark::State& state) {
  Machine m;
  Profiler profiler;
  m.set_trace(&profiler);
  m.begin_phase("leaf");
  measure_bulk(state, m);
  m.end_phase();
  m.set_trace(nullptr);
}
BENCHMARK(BM_BulkSinglePhaseProfiled);

// Congestion sink on the bulk path: one on_send_bulk dispatch per 4096
// messages, each still routed link-by-link.
void BM_BulkSinglePhaseCongestion(benchmark::State& state) {
  Machine m;
  CongestionMap congestion;
  m.set_trace(&congestion);
  m.begin_phase("leaf");
  measure_bulk(state, m);
  m.end_phase();
  m.set_trace(nullptr);
}
BENCHMARK(BM_BulkSinglePhaseCongestion);

// End-to-end routing through the whole stack (GridArray placement,
// per-phase attribution): one Z-order -> row-major permutation of a 64x64
// grid per iteration. The bulk shape charges it with route_permutation's
// single send_bulk; the scalar shape charges the same coordinates with a
// loop of Machine::send.
constexpr index_t kRoutingSide = 64;

template <class Route>
void run_routing(benchmark::State& state, Route route) {
  const auto n = static_cast<std::size_t>(kRoutingSide * kRoutingSide);
  std::vector<int> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<int>(i);
  const Rect region = square_at({0, 0}, kRoutingSide);
  for (auto _ : state) {
    Machine m;
    const auto src =
        GridArray<int>::from_values(region, Layout::kZOrder, values);
    benchmark::DoNotOptimize(route(m, src, region));
    benchmark::DoNotOptimize(m.metrics().energy);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_RoutingScalar(benchmark::State& state) {
  run_routing(state, [](Machine& m, const GridArray<int>& src, Rect region) {
    GridArray<int> dst(region, Layout::kRowMajor, src.size());
    for (index_t i = 0; i < src.size(); ++i) {
      const Clock arrival = m.send(src.coord(i), dst.coord(i), src[i].clock);
      dst[i] = Cell<int>{src[i].value, arrival};
    }
    return dst;
  });
}
BENCHMARK(BM_RoutingScalar);

void BM_RoutingBulk(benchmark::State& state) {
  run_routing(state, [](Machine& m, const GridArray<int>& src, Rect region) {
    return route_permutation(m, src, region, Layout::kRowMajor);
  });
}
BENCHMARK(BM_RoutingBulk);

// ---- Sharded parallel-engine shapes ---------------------------------------
//
// One send_bulk of a whole-grid permutation per iteration, charged
// through the sharded parallel engine (spatial/parallel.*). Arg(1) runs
// with the engine off — the serial bulk loop — so the BM_ParallelSinglePhase
// series is the thread-scaling curve of the same work. The batch is built
// once and reused: send_bulk only rewrites distance/arrival, so every
// iteration charges identical work. Results and the acceptance bar (>= 3x
// events/sec at 8 threads on the 512x512 grid, on hosts with >= 8 cores)
// are recorded under "parallel_engine" in BENCH_simulator.json.

std::vector<MessageEvent> make_grid_batch(index_t rows, index_t cols) {
  std::vector<MessageEvent> batch;
  batch.reserve(static_cast<std::size_t>(rows * cols));
  for (index_t r = 0; r < rows; ++r) {
    for (index_t c = 0; c < cols; ++c) {
      // A fixed translation torus permutation: distinct sources, distinct
      // destinations (the independence discipline), multi-tile distances.
      batch.push_back(MessageEvent{
          {r, c}, {(r + 17) % rows, (c + 31) % cols}, 0, Clock{}, Clock{}});
    }
  }
  return batch;
}

void measure_parallel(benchmark::State& state, const parallel::Config& cfg,
                      index_t rows, index_t cols) {
  parallel::ScopedParallelEngine engine(cfg);
  std::vector<MessageEvent> batch = make_grid_batch(rows, cols);
  Machine m;
  m.begin_phase("leaf");
  for (auto _ : state) {
    m.send_bulk(batch);  // bulk-ok: begin_phase("leaf") above holds the phase
    benchmark::DoNotOptimize(m.metrics().energy);
  }
  m.end_phase();
  const auto n = static_cast<std::int64_t>(batch.size());
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * n),
      benchmark::Counter::kIsRate);
}

// Thread-scaling sweep on a 512x512 grid (262,144 messages per round).
void BM_ParallelSinglePhase(benchmark::State& state) {
  parallel::Config cfg;
  cfg.threads = static_cast<int>(state.range(0));  // 1 = engine off
  cfg.tile_rows = 64;
  cfg.tile_cols = 64;
  cfg.min_parallel_batch = 1;
  measure_parallel(state, cfg, 512, 512);
}
// UseRealTime on every parallel shape: the engine spends CPU on worker
// threads the main-thread CPU clock never sees, so wall clock is the only
// honest throughput basis (and the one the speedup ratios are quoted on).
BENCHMARK(BM_ParallelSinglePhase)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// Tile-size sweep at a fixed worker count on the same 512x512 grid.
void BM_ParallelTile(benchmark::State& state) {
  parallel::Config cfg;
  cfg.threads = 8;
  cfg.tile_rows = state.range(0);
  cfg.tile_cols = state.range(0);
  cfg.min_parallel_batch = 1;
  measure_parallel(state, cfg, 512, 512);
}
BENCHMARK(BM_ParallelTile)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->UseRealTime();

// WSE-2-scale round: 1024x832 = 851,968 processors, one message each —
// the full-wafer bulk step the events/sec figure in BENCH_simulator.json
// is quoted on.
void BM_ParallelWse2(benchmark::State& state) {
  parallel::Config cfg;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.tile_rows = 64;
  cfg.tile_cols = 64;
  cfg.min_parallel_batch = 1;
  measure_parallel(state, cfg, 1024, 832);
}
BENCHMARK(BM_ParallelWse2)->Arg(1)->Arg(8)->UseRealTime();

// Phase-transition throughput: scope enter/exit pairs per second. The
// interned engine moves the dedup work here (per transition), so this
// guards the other side of the trade.
void BM_PhaseTransitions(benchmark::State& state) {
  Machine m;
  std::int64_t scopes = 0;
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      Machine::PhaseScope outer(m, "outer");
      Machine::PhaseScope inner(m, "inner");
      benchmark::DoNotOptimize(&inner);
    }
    scopes += 512;
  }
  state.SetItemsProcessed(scopes);
}
BENCHMARK(BM_PhaseTransitions);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const scm::util::Cli cli(argc, argv);
  scm::bench::configure_sweep(cli);
  cli.warn_unknown();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
