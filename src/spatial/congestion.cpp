#include "spatial/congestion.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <memory_resource>
#include <sstream>

namespace scm {

namespace {

std::string phase_label(PhaseId id) {
  return id == kNoPhase ? std::string("<top>")
                        : PhaseRegistry::instance().name(id);
}

/// Report order of cells: by row, then column.
bool coord_before(Coord a, Coord b) {
  return a.row != b.row ? a.row < b.row : a.col < b.col;
}

/// Nearest-rank p-th percentile (p clamped to [0, 100]): the smallest v
/// such that at least ceil(p% * n) of the n `values` are <= v; 0 when
/// there are none.
index_t nearest_rank(std::vector<index_t> values, double p) {
  if (values.empty()) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(p / 100.0 * static_cast<double>(values.size()))));
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

/// The `k` largest counts of `all`, descending; `before` orders the keys
/// of equal counts. O(n log k) via partial sort.
template <typename Key, typename Before>
std::vector<std::pair<Key, index_t>> top_k(
    std::vector<std::pair<Key, index_t>> all, std::size_t k, Before before) {
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [&](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return before(a.first, b.first);
                    });
  all.resize(k);
  return all;
}

/// ASCII ramp heatmap of per-cell `values` over their bounding box,
/// downsampled to at most `max_side` (at least 1) characters per side. A
/// cell may appear more than once; each character shows the maximum of
/// its bucket, and levels " .:-=+*#%@" scale linearly with the peak.
/// `title` and `measure` fill the header line.
std::string ramp_heatmap(const char* title, const char* measure,
                         const std::vector<std::pair<Coord, index_t>>& values,
                         index_t max_side) {
  if (values.empty()) return "(no traffic)\n";
  static const char kLevels[] = " .:-=+*#%@";
  Coord lo = values.front().first;
  Coord hi = lo;
  for (const auto& [cell, v] : values) {
    lo = Coord{std::min(lo.row, cell.row), std::min(lo.col, cell.col)};
    hi = Coord{std::max(hi.row, cell.row), std::max(hi.col, cell.col)};
  }
  const index_t rows = hi.row - lo.row + 1;
  const index_t cols = hi.col - lo.col + 1;
  const index_t side = std::max<index_t>(1, max_side);
  const index_t bucket =
      std::max<index_t>(1, (std::max(rows, cols) + side - 1) / side);
  const index_t out_rows = (rows + bucket - 1) / bucket;
  const index_t out_cols = (cols + bucket - 1) / bucket;

  std::vector<index_t> grid(static_cast<size_t>(out_rows * out_cols), 0);
  for (const auto& [cell, v] : values) {
    const index_t r = (cell.row - lo.row) / bucket;
    const index_t c = (cell.col - lo.col) / bucket;
    index_t& slot = grid[static_cast<size_t>(r * out_cols + c)];
    slot = std::max(slot, v);
  }
  index_t peak = 1;
  for (index_t v : grid) peak = std::max(peak, v);

  std::ostringstream os;
  os << title << " heatmap (" << rows << "x" << cols << " cells" << measure
     << ", bucket " << bucket << "x" << bucket << ", peak " << peak << ")\n";
  for (index_t r = 0; r < out_rows; ++r) {
    for (index_t c = 0; c < out_cols; ++c) {
      const index_t v = grid[static_cast<size_t>(r * out_cols + c)];
      const auto idx = static_cast<std::size_t>(
          (static_cast<double>(v) / static_cast<double>(peak)) * 9.0);
      os << kLevels[std::min<std::size_t>(idx, 9)];
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace

std::string Link::str() const {
  std::ostringstream os;
  os << '[' << from.row << ',' << from.col << "]->[" << to.row << ','
     << to.col << ']';
  return os.str();
}

std::array<CongestionMap::Run, 2> CongestionMap::route(Coord from, Coord to) {
  // Links are keyed by their from-cell: going down, the vertical run's
  // from-cells are rows [from.row, to.row - 1]; going up, rows
  // [to.row + 1, from.row]. The horizontal run at to.row likewise.
  const bool down = to.row > from.row;
  const bool right = to.col > from.col;
  return {Run{down ? from.row : to.row + 1, from.col,
              std::abs(to.row - from.row), down ? kDown : kUp},
          Run{to.row, right ? from.col : to.col + 1,
              std::abs(to.col - from.col), right ? kRight : kLeft}};
}

Link CongestionMap::link_of(LinkKey key) {
  Coord from{key.row, key.col};
  Coord to = from;
  switch (key.dir) {
    case kUp: to.row -= 1; break;
    case kDown: to.row += 1; break;
    case kLeft: to.col -= 1; break;
    case kRight: to.col += 1; break;
  }
  return Link{from, to};
}

CongestionMap::Bucket& CongestionMap::current_bucket() {
  if (cached_bucket_ != nullptr) return *cached_bucket_;
  const PhaseId id = bucket();
  const auto [it, inserted] = phases_.try_emplace(id);
  if (inserted) phase_order_.push_back(id);
  cached_bucket_ = &it->second;
  return *cached_bucket_;
}

void CongestionMap::bump(LinkKey key, Bucket& b) {
  index_t& slot = load_[key];
  ++slot;
  ++total_;
  max_link_load_ = std::max(max_link_load_, slot);

  index_t& bslot = b.load[key];
  ++bslot;
  ++b.occupancy;
  if (bslot > b.peak) {
    // The congested clock is the sum of bucket peaks; maintain it
    // incrementally as each bucket's peak rises.
    congested_clock_ += bslot - b.peak;
    b.peak = bslot;
  }
}

void CongestionMap::add(const Run& run) {
  if (run.count == 0) return;
  Bucket& b = current_bucket();
  LinkKey key{run.row, run.col, run.dir};
  index_t& step = run.vertical() ? key.row : key.col;
  for (index_t i = 0; i < run.count; ++i, ++step) bump(key, b);
}

void CongestionMap::on_message(Coord from, Coord to, index_t distance) {
  assert(distance == manhattan(from, to));
  (void)distance;
  ++messages_;
  ++ticks_;
  for (const Run& run : route(from, to)) add(run);
}

void CongestionMap::on_send_bulk(std::span<const MessageEvent> batch) {
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    ++messages_;
    ++ticks_;
    for (const Run& run : route(e.from, e.to)) add(run);
  }
}

void CongestionMap::record_sample() {
  // Counter tracks render step changes; consecutive identical samples
  // add nothing, so phase-transition storms with no traffic stay cheap.
  if (!samples_.empty() &&
      samples_.back().max_link_load == max_link_load_ &&
      samples_.back().congested_clock == congested_clock_) {
    return;
  }
  samples_.push_back(CounterSample{ticks_, max_link_load_, congested_clock_});
}

void CongestionMap::on_phase_enter(PhaseId id) {
  record_sample();
  stack_.push_back(id);
  cached_bucket_ = nullptr;
}

void CongestionMap::on_phase_exit(PhaseId id) {
  (void)id;
  if (stack_.empty()) return;  // imbalance is the checker's to report
  record_sample();
  stack_.pop_back();
  cached_bucket_ = nullptr;
}

void CongestionMap::on_reset() { clear(); }

void CongestionMap::clear() {
  load_.clear();
  total_ = 0;
  messages_ = 0;
  max_link_load_ = 0;
  congested_clock_ = 0;
  ticks_ = 0;
  phases_.clear();
  phase_order_.clear();
  cached_bucket_ = nullptr;
  samples_.clear();
  // stack_ deliberately survives: open PhaseScopes keep attributing
  // across Machine::reset, exactly like the Profiler.
}

index_t CongestionMap::occupancy(Link link) const {
  Dir dir = kUp;
  const index_t dr = link.to.row - link.from.row;
  const index_t dc = link.to.col - link.from.col;
  if (dr == -1 && dc == 0) {
    dir = kUp;
  } else if (dr == 1 && dc == 0) {
    dir = kDown;
  } else if (dr == 0 && dc == -1) {
    dir = kLeft;
  } else if (dr == 0 && dc == 1) {
    dir = kRight;
  } else {
    return 0;  // not a unit link
  }
  const auto it = load_.find(LinkKey{link.from.row, link.from.col, dir});
  return it == load_.end() ? 0 : it->second;
}

std::vector<std::pair<Link, index_t>> CongestionMap::hotspot_links(
    std::size_t k) const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(load_.size());
  for (const auto& [key, count] : load_) {
    all.push_back({link_of(key), count});
  }
  return top_k(std::move(all), k, std::less<Link>{});
}

index_t CongestionMap::percentile(double p) const {
  std::vector<index_t> loads;
  loads.reserve(load_.size());
  for (const auto& [key, count] : load_) loads.push_back(count);
  return nearest_rank(std::move(loads), p);
}

std::vector<std::pair<Link, index_t>> CongestionMap::sorted_links() const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(load_.size());
  for (const auto& [key, count] : load_) {
    all.push_back({link_of(key), count});
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return all;
}

std::vector<index_t> CongestionMap::occupancy_multiset() const {
  std::vector<index_t> values;
  values.reserve(load_.size());
  for (const auto& [key, count] : load_) values.push_back(count);
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<CongestionMap::PhaseCongestion> CongestionMap::phase_congestion()
    const {
  std::vector<PhaseCongestion> out;
  out.reserve(phase_order_.size());
  for (const PhaseId id : phase_order_) {
    const Bucket& b = phases_.at(id);
    out.push_back(PhaseCongestion{id, b.occupancy,
                                  static_cast<index_t>(b.load.size()),
                                  b.peak});
  }
  return out;
}

index_t CongestionMap::phase_peak(PhaseId id) const {
  const auto it = phases_.find(id);
  return it == phases_.end() ? 0 : it->second.peak;
}

std::string CongestionMap::ascii_report(std::size_t hotspots) const {
  std::ostringstream os;
  os << "link congestion (dimension-ordered routing, directed unit links)\n";
  os << "  messages " << messages_ << ", occupancy " << total_
     << " (= total Manhattan distance), links " << links() << "\n";
  os << "  max link load " << max_link_load_ << ", p50 " << percentile(50.0)
     << ", p95 " << percentile(95.0) << ", p99 " << percentile(99.0)
     << ", congested clock " << congested_clock_ << "\n";
  const auto spots = hotspot_links(hotspots);
  if (!spots.empty()) {
    os << "  hotspot links:\n";
    for (const auto& [link, count] : spots) {
      os << "    " << link.str() << "  " << count << "\n";
    }
  }
  const auto phases = phase_congestion();
  if (!phases.empty()) {
    os << "  phases (innermost attribution; congested clock = sum of "
          "peaks):\n";
    for (const PhaseCongestion& pc : phases) {
      const double mean =
          pc.links == 0 ? 0.0
                        : static_cast<double>(pc.occupancy) /
                              static_cast<double>(pc.links);
      std::string label = phase_label(pc.phase);
      if (label.size() > 30) label.resize(30);
      os << "    " << label;
      for (std::size_t i = label.size(); i < 32; ++i) os << ' ';
      os << "peak " << pc.peak << ", links " << pc.links << ", mean "
         << static_cast<index_t>(mean * 100.0 + 0.5) / 100.0
         << ", occupancy " << pc.occupancy << "\n";
    }
  }
  return os.str();
}

std::string CongestionMap::heatmap(index_t max_side) const {
  // Per-cell pressure: the maximum occupancy over the directed links
  // leaving the cell.
  std::vector<std::pair<Coord, index_t>> leaving;
  leaving.reserve(load_.size());
  for (const auto& [key, count] : load_) {
    leaving.push_back({Coord{key.row, key.col}, count});
  }
  return ramp_heatmap("link", ", max outgoing-link load", leaving, max_side);
}

std::string CongestionMap::chrome_counter_json() const {
  // One "C" (counter) event per recorded sample over the same virtual
  // tick axis the Profiler's phase trace uses (1 us = 1 charged event),
  // plus a closing sample so the track always reaches the final tick.
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"scm simulated run\"}}";
  const auto emit = [&os](const CounterSample& s) {
    os << ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" << s.tick
       << ",\"name\":\"link congestion\",\"args\":{\"max_link_load\":"
       << s.max_link_load << ",\"congested_clock\":" << s.congested_clock
       << "}}";
  };
  for (const CounterSample& s : samples_) emit(s);
  emit(CounterSample{ticks_, max_link_load_, congested_clock_});
  os << "\n]}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// LoadMap

void LoadMap::on_message(Coord from, Coord to, index_t distance) {
  ++sent_[from];
  links_.on_message(from, to, distance);
}

void LoadMap::on_send_bulk(std::span<const MessageEvent> batch) {
  for (const MessageEvent& e : batch) {
    if (e.distance != 0) ++sent_[e.from];
  }
  links_.on_send_bulk(batch);
}

void LoadMap::on_phase_enter(PhaseId id) { links_.on_phase_enter(id); }

void LoadMap::on_phase_exit(PhaseId id) { links_.on_phase_exit(id); }

index_t LoadMap::load_at(Coord c) const {
  const auto it = sent_.find(c);
  index_t load = it == sent_.end() ? 0 : it->second;
  // Traversals into c arrive over its four inbound links.
  for (const Coord from : {Coord{c.row - 1, c.col}, Coord{c.row + 1, c.col},
                           Coord{c.row, c.col - 1}, Coord{c.row, c.col + 1}}) {
    load += links_.occupancy(Link{from, c});
  }
  return load;
}

LoadMap::Cells LoadMap::cells() const {
  // load(c) = messages sent from c + link traversals into c. The
  // temporary map's nodes come from one pool released whole, so
  // allocating them does not dominate a report export.
  std::pmr::monotonic_buffer_resource pool;
  std::pmr::unordered_map<Coord, index_t, CoordHash> load(&pool);
  load.reserve(sent_.size());
  load.insert(sent_.begin(), sent_.end());
  for (const auto& [key, count] : links_.load_) {
    load[CongestionMap::link_of(key).to] += count;
  }
  return Cells({load.begin(), load.end()});
}

void LoadMap::clear() {
  links_.clear();
  sent_.clear();
}

index_t LoadMap::Cells::max_load() const {
  index_t peak = 0;
  for (const auto& [cell, load] : loads_) peak = std::max(peak, load);
  return peak;
}

std::vector<std::pair<Coord, index_t>> LoadMap::Cells::hotspots(
    std::size_t k) const {
  return top_k(loads_, k, coord_before);
}

index_t LoadMap::Cells::percentile(double p) const {
  std::vector<index_t> loads;
  loads.reserve(loads_.size());
  for (const auto& [cell, load] : loads_) loads.push_back(load);
  return nearest_rank(std::move(loads), p);
}

double LoadMap::Cells::imbalance() const {
  if (loads_.empty()) return 0.0;
  // Summed in ascending load order, so the result does not depend on the
  // order the cells were derived in.
  std::vector<index_t> loads;
  loads.reserve(loads_.size());
  index_t total = 0;
  for (const auto& [cell, load] : loads_) {
    loads.push_back(load);
    total += load;
  }
  std::sort(loads.begin(), loads.end());
  const double mean =
      static_cast<double>(total) / static_cast<double>(loads.size());
  double var = 0.0;
  for (const index_t load : loads) {
    const double d = static_cast<double>(load) - mean;
    var += d * d;
  }
  var /= static_cast<double>(loads.size());
  return mean == 0.0 ? 0.0 : std::sqrt(var) / mean;
}

std::string LoadMap::Cells::heatmap(index_t max_side) const {
  return ramp_heatmap("load", "", loads_, max_side);
}

}  // namespace scm
