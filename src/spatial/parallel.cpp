#include "spatial/parallel.hpp"

#include "spatial/independence.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>

namespace scm::parallel {

namespace {

index_t pow2_at_least(index_t v) {
  return ceil_pow2(std::max<index_t>(1, v));
}

Config normalized(Config cfg) {
  cfg.threads = std::max(1, cfg.threads);
  cfg.tile_rows = pow2_at_least(cfg.tile_rows);
  cfg.tile_cols = pow2_at_least(cfg.tile_cols);
  cfg.min_parallel_batch = std::max<index_t>(1, cfg.min_parallel_batch);
  return cfg;
}

int log2_of(index_t pow2) {
  return std::countr_zero(static_cast<std::uint64_t>(pow2));
}

struct GlobalState {
  Config cfg{};
  std::unique_ptr<Engine> eng;
  bool initialized{false};
};

GlobalState& global() {
  static GlobalState g;
  return g;
}

}  // namespace

Tiling::Tiling(index_t tile_rows, index_t tile_cols, int shards)
    : tile_rows_(pow2_at_least(tile_rows)),
      tile_cols_(pow2_at_least(tile_cols)),
      log2_rows_(log2_of(tile_rows_)),
      log2_cols_(log2_of(tile_cols_)),
      shards_(std::max(1, shards)) {}

Engine::Engine(const Config& cfg)
    : config_(normalized(cfg)),
      tiling_(config_.tile_rows, config_.tile_cols, config_.threads),
      barrier_(config_.threads) {
  const auto t = static_cast<std::size_t>(config_.threads);
  bins_.resize(t * t);
  lanes_.resize(t);
  guard_.resize(t);
  workers_.reserve(t - 1);
  for (int i = 1; i < config_.threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

Engine::~Engine() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void Engine::worker_loop(int id) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    (*job)(id);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

void Engine::run(const std::function<void(int)>& fn) {
  if (config_.threads == 1) {
    fn(0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    job_ = &fn;
    ++generation_;
    pending_ = config_.threads - 1;
  }
  cv_start_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
}

bool Engine::charge_send_bulk(std::span<MessageEvent> batch,
                              BulkAggregate& out) {
  const std::size_t n = batch.size();
  if (n == 0) {
    out = BulkAggregate{};
    ++stats_.parallel_batches;
    return true;
  }
  if (n > std::numeric_limits<std::uint32_t>::max()) return false;
  const int threads = config_.threads;
  const bool guard_on = config_.guard && !ScopedUnorderedDelivery::active();
  ++epoch_;
  if (epoch_ == 0) {  // wrap: stale stamps could alias, drop them all
    for (auto& m : guard_) m.clear();
    epoch_ = 1;
  }
  for (auto& bin : bins_) bin.clear();
  MessageEvent* const data = batch.data();

  run([&](int w) {
    // Pass A: bin my block's entry indices by the worker that owns each
    // destination tile. bins_[w * threads + owner] has one writer (me)
    // now and one reader (owner) after the barrier.
    const auto [lo, hi] = slice(n, w);
    std::vector<std::uint32_t>* const mine =
        &bins_[static_cast<std::size_t>(w) * static_cast<std::size_t>(threads)];
    for (std::size_t i = lo; i < hi; ++i) {
      const int owner = tiling_.shard_of(tiling_.tile_of(data[i].to));
      mine[owner].push_back(static_cast<std::uint32_t>(i));
    }
    sync();
    // Pass B: charge every entry addressed to my tiles, scanning the
    // producers in fixed order. Entry sets are disjoint across workers,
    // so the in-place distance/arrival writes are race-free.
    BulkAggregate agg;
    bool conflict = false;
    auto& gmap = guard_[static_cast<std::size_t>(w)];
    std::uint64_t cached_key = ~std::uint64_t{0};
    GuardTile* cached_tile = nullptr;
    for (int p = 0; p < threads; ++p) {
      const auto& bin =
          bins_[static_cast<std::size_t>(p) * static_cast<std::size_t>(threads) +
                static_cast<std::size_t>(w)];
      for (const std::uint32_t idx : bin) {
        MessageEvent& e = data[idx];
        const index_t dist = manhattan(e.from, e.to);
        e.distance = dist;
        if (dist == 0) {
          e.arrival = e.payload;  // local hand-off: free, no charge
        } else {
          e.arrival = e.payload.after_hop(dist);
          agg.energy += dist;
          ++agg.messages;
          agg.max_clock = Clock::join(agg.max_clock, e.arrival);
        }
        if (guard_on) {
          const TileCoord t = tiling_.tile_of(e.to);
          const std::uint64_t key = coord_key(t.row, t.col);
          if (key != cached_key || cached_tile == nullptr) {
            GuardTile& gt = gmap[key];
            if (gt.stamp.empty()) {
              gt.stamp.assign(
                  static_cast<std::size_t>(tiling_.cells_per_tile()), 0);
            }
            cached_tile = &gt;
            cached_key = key;
          }
          std::uint64_t& stamp =
              cached_tile->stamp[static_cast<std::size_t>(
                  tiling_.cell_index(e.to))];
          if (stamp == epoch_) {
            conflict = true;  // two entries target one destination cell
          } else {
            stamp = epoch_;
          }
        }
      }
    }
    lanes_[static_cast<std::size_t>(w)].agg = agg;
    lanes_[static_cast<std::size_t>(w)].conflict = conflict;
  });

  bool any_conflict = false;
  for (int w = 0; w < threads; ++w) {
    any_conflict = any_conflict || lanes_[static_cast<std::size_t>(w)].conflict;
  }
  if (any_conflict) {
    // Unproven batch: decline so the Machine's scalar bulk loop charges
    // it (identically) and the IndependenceChecker gets to report it.
    ++stats_.downgraded_batches;
    return false;
  }
  out = BulkAggregate{};
  for (int w = 0; w < threads; ++w) {
    out = merge(out, lanes_[static_cast<std::size_t>(w)].agg);
  }
  ++stats_.parallel_batches;
  stats_.parallel_messages += static_cast<std::uint64_t>(out.messages);
  return true;
}

Clock Engine::join_birth_clocks(std::span<const BirthEvent> batch) {
  const std::size_t n = batch.size();
  run([&](int w) {
    const auto [lo, hi] = slice(n, w);
    Clock c{};
    for (std::size_t i = lo; i < hi; ++i) {
      c = Clock::join(c, batch[i].clock);
    }
    lanes_[static_cast<std::size_t>(w)].clock = c;
  });
  Clock out{};
  for (int w = 0; w < config_.threads; ++w) {
    out = Clock::join(out, lanes_[static_cast<std::size_t>(w)].clock);
  }
  ++stats_.birth_batches;
  return out;
}

Config config_from_env() {
  Config cfg;
  if (const char* s = std::getenv("SCM_THREADS"); s != nullptr && *s != '\0') {
    cfg.threads = std::max(1, std::atoi(s));
  }
  if (const char* s = std::getenv("SCM_TILE"); s != nullptr && *s != '\0') {
    long long w = 0;
    long long h = 0;
    if (std::sscanf(s, "%lldx%lld", &w, &h) == 2 && w > 0 && h > 0) {
      cfg.tile_cols = static_cast<index_t>(w);
      cfg.tile_rows = static_cast<index_t>(h);
    }
  }
  if (const char* s = std::getenv("SCM_PARALLEL_MIN_BATCH");
      s != nullptr && *s != '\0') {
    const long long v = std::atoll(s);
    if (v > 0) cfg.min_parallel_batch = static_cast<index_t>(v);
  }
  return cfg;
}

void configure(const Config& cfg) {
  GlobalState& g = global();
  g.initialized = true;
  const Config norm = normalized(cfg);
  const bool want_engine = norm.threads >= 2;
  if (norm == g.cfg && want_engine == (g.eng != nullptr)) return;
  g.eng.reset();
  g.cfg = norm;
  if (want_engine) g.eng = std::make_unique<Engine>(norm);
}

const Config& config() {
  GlobalState& g = global();
  if (!g.initialized) configure(config_from_env());
  return g.cfg;
}

Engine* engine() {
  GlobalState& g = global();
  if (!g.initialized) configure(config_from_env());
  return g.eng.get();
}

ScopedParallelEngine::ScopedParallelEngine(const Config& cfg)
    : saved_(config()) {
  configure(cfg);
}

ScopedParallelEngine::~ScopedParallelEngine() { configure(saved_); }

// ---------------------------------------------------------------------------
// ShardedCongestionMap

ShardedCongestionMap::ShardedCongestionMap(const Config& cfg) {
  const Config norm = normalized(cfg);
  tiling_ = Tiling(norm.tile_rows, norm.tile_cols, norm.threads);
  const auto s = static_cast<std::size_t>(tiling_.shards());
  shards_ = std::vector<CongestionMap>(s);
  queues_.resize(s * s);
  cross_.assign(s, 0);
}

void ShardedCongestionMap::register_bucket() {
  // Every shard mirrors the same phase stack.
  const PhaseId id = shards_.front().bucket();
  if (seen_buckets_.insert(id).second) bucket_order_.push_back(id);
}

template <typename Fn>
void ShardedCongestionMap::for_each_segment(Coord from, Coord to,
                                            Fn&& fn) const {
  for (Run run : CongestionMap::route(from, to)) {
    index_t& start = run.vertical() ? run.row : run.col;
    while (run.count > 0) {
      const index_t band_end = run.vertical() ? tiling_.next_row_band(start)
                                              : tiling_.next_col_band(start);
      Run seg = run;
      seg.count = std::min(run.count, band_end - start);
      fn(owner(Coord{seg.row, seg.col}), seg);
      run.count -= seg.count;
      start += seg.count;
    }
  }
}

void ShardedCongestionMap::apply_serial(Coord from, Coord to) {
  for_each_segment(from, to, [&](int owner, const Run& seg) {
    shards_[static_cast<std::size_t>(owner)].add(seg);
  });
}

void ShardedCongestionMap::apply_parallel(Engine& eng,
                                          std::span<const MessageEvent> batch) {
  const int shards = tiling_.shards();
  for (auto& q : queues_) q.clear();
  const MessageEvent* const data = batch.data();
  const std::size_t n = batch.size();
  eng.run([&](int w) {
    // Pass A: decompose my block's messages; apply my own tiles'
    // segments directly, ship foreign ones through the SPSC queues.
    std::vector<Run>* const outq =
        &queues_[static_cast<std::size_t>(w) * static_cast<std::size_t>(shards)];
    CongestionMap& mine = shards_[static_cast<std::size_t>(w)];
    std::uint64_t cross = 0;
    const auto [lo, hi] = eng.slice(n, w);
    for (std::size_t i = lo; i < hi; ++i) {
      const MessageEvent& e = data[i];
      if (e.distance == 0) continue;
      for_each_segment(e.from, e.to, [&](int owner, const Run& seg) {
        if (owner == w) {
          mine.add(seg);
        } else {
          outq[owner].push_back(seg);
          ++cross;
        }
      });
    }
    cross_[static_cast<std::size_t>(w)] = cross;
    eng.sync();
    // Pass B: drain the queues addressed to me, producers in fixed
    // order. Only I touch my shard, so no locks anywhere.
    for (int p = 0; p < shards; ++p) {
      if (p == w) continue;
      const auto& inq =
          queues_[static_cast<std::size_t>(p) * static_cast<std::size_t>(shards) +
                  static_cast<std::size_t>(w)];
      for (const Run& seg : inq) mine.add(seg);
    }
  });
  for (int w = 0; w < shards; ++w) {
    cross_tile_segments_ += cross_[static_cast<std::size_t>(w)];
  }
}

void ShardedCongestionMap::on_message(Coord from, Coord to, index_t distance) {
  assert(distance == manhattan(from, to));
  ++messages_;
  if (distance == 0) return;
  register_bucket();
  apply_serial(from, to);
}

void ShardedCongestionMap::on_send_bulk(std::span<const MessageEvent> batch) {
  index_t charged = 0;
  for (const MessageEvent& e : batch) {
    if (e.distance != 0) ++charged;
  }
  if (charged == 0) return;
  messages_ += charged;
  register_bucket();
  Engine* const eng = engine();
  if (eng != nullptr && eng->tiling() == tiling_ &&
      static_cast<index_t>(batch.size()) >= eng->config().min_parallel_batch) {
    apply_parallel(*eng, batch);
    ++parallel_batches_;
  } else {
    for (const MessageEvent& e : batch) {
      if (e.distance != 0) apply_serial(e.from, e.to);
    }
  }
}

void ShardedCongestionMap::on_phase_enter(PhaseId id) {
  for (CongestionMap& sh : shards_) sh.on_phase_enter(id);
}

void ShardedCongestionMap::on_phase_exit(PhaseId id) {
  for (CongestionMap& sh : shards_) sh.on_phase_exit(id);
}

void ShardedCongestionMap::on_reset() { clear(); }

void ShardedCongestionMap::clear() {
  // Like CongestionMap::clear(), the mirrored phase stacks survive.
  for (CongestionMap& sh : shards_) sh.clear();
  messages_ = 0;
  bucket_order_.clear();
  seen_buckets_.clear();
  parallel_batches_ = 0;
  cross_tile_segments_ = 0;
}

index_t ShardedCongestionMap::total_occupancy() const {
  index_t total = 0;
  for (const CongestionMap& sh : shards_) total += sh.total_occupancy();
  return total;
}

index_t ShardedCongestionMap::links() const {
  index_t n = 0;
  for (const CongestionMap& sh : shards_) n += sh.links();
  return n;
}

index_t ShardedCongestionMap::occupancy(Link link) const {
  return shards_[static_cast<std::size_t>(owner(link.from))].occupancy(link);
}

index_t ShardedCongestionMap::max_link_load() const {
  index_t peak = 0;
  for (const CongestionMap& sh : shards_) {
    peak = std::max(peak, sh.max_link_load());
  }
  return peak;
}

std::vector<std::pair<Link, index_t>> ShardedCongestionMap::sorted_links()
    const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(static_cast<std::size_t>(links()));
  for (const CongestionMap& sh : shards_) {
    const auto part = sh.sorted_links();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return all;
}

std::vector<index_t> ShardedCongestionMap::occupancy_multiset() const {
  std::vector<index_t> values;
  values.reserve(static_cast<std::size_t>(links()));
  for (const CongestionMap& sh : shards_) {
    const auto part = sh.occupancy_multiset();
    values.insert(values.end(), part.begin(), part.end());
  }
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<ShardedCongestionMap::PhaseCongestion>
ShardedCongestionMap::phase_congestion() const {
  std::vector<PhaseCongestion> out;
  out.reserve(bucket_order_.size());
  for (const PhaseId id : bucket_order_) {
    PhaseCongestion pc;
    pc.phase = id;
    for (const CongestionMap& sh : shards_) {
      const auto it = sh.phases_.find(id);
      if (it == sh.phases_.end()) continue;
      pc.occupancy += it->second.occupancy;
      pc.links += static_cast<index_t>(it->second.load.size());
      pc.peak = std::max(pc.peak, it->second.peak);
    }
    out.push_back(pc);
  }
  return out;
}

index_t ShardedCongestionMap::phase_peak(PhaseId id) const {
  index_t peak = 0;
  for (const CongestionMap& sh : shards_) {
    peak = std::max(peak, sh.phase_peak(id));
  }
  return peak;
}

index_t ShardedCongestionMap::congested_clock() const {
  // The serial map maintains this incrementally; the final value is the
  // sum over buckets of the bucket's final peak, which folds exactly
  // from disjoint shards (max over shards of per-shard peak).
  index_t clock = 0;
  for (const PhaseId id : bucket_order_) clock += phase_peak(id);
  return clock;
}

}  // namespace scm::parallel
