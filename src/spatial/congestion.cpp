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

Link CongestionMap::link_of(Coord from, Dir dir) {
  Coord to = from;
  switch (dir) {
    case kUp: to.row -= 1; break;
    case kDown: to.row += 1; break;
    case kLeft: to.col -= 1; break;
    case kRight: to.col += 1; break;
  }
  return Link{from, to};
}

CongestionMap::LinkLoad::Page& CongestionMap::LinkLoad::page(
    const PageKey& key) {
  Recent& recent = recent_[key.dir];
  if (recent.page == nullptr || recent.key != key) {
    // Map nodes are pointer-stable, so the pointer stays valid until
    // clear() drops the page.
    recent = Recent{key, &pages_[key]};
  }
  return *recent.page;
}

index_t CongestionMap::LinkLoad::add(const Run& run) {
  const index_t line = run.vertical() ? run.col : run.row;
  index_t pos = run.vertical() ? run.row : run.col;
  const index_t end = pos + run.count;
  index_t peak = 0;
  index_t fresh = 0;  // a local, so the loop need not assume it aliases a page
  while (pos < end) {
    const index_t first = page_first(pos);
    const index_t stop = std::min(end, first + kPageLinks);
    Page& counts = page(PageKey{line, first, run.dir});
    for (index_t i = pos - first; i < stop - first; ++i) {
      index_t& count = counts[static_cast<std::size_t>(i)];
      fresh += count == 0 ? 1 : 0;
      peak = std::max(peak, ++count);
    }
    pos = stop;
  }
  links_ += fresh;
  return peak;
}

index_t CongestionMap::LinkLoad::at(Coord from, Dir dir) const {
  const bool vertical = dir == kUp || dir == kDown;
  const index_t pos = vertical ? from.row : from.col;
  const index_t first = page_first(pos);
  const auto it =
      pages_.find(PageKey{vertical ? from.col : from.row, first, dir});
  return it == pages_.end() ? 0
                            : it->second[static_cast<std::size_t>(pos - first)];
}

template <typename Fn>
void CongestionMap::LinkLoad::for_each(Fn&& fn) const {
  for (const auto& [key, counts] : pages_) {
    const bool vertical = key.dir == kUp || key.dir == kDown;
    for (index_t i = 0; i < kPageLinks; ++i) {
      const index_t count = counts[static_cast<std::size_t>(i)];
      if (count == 0) continue;
      const index_t pos = key.first + i;
      const Coord from = vertical ? Coord{pos, key.line} : Coord{key.line, pos};
      fn(link_of(from, key.dir), count);
    }
  }
}

void CongestionMap::LinkLoad::clear() {
  pages_.clear();
  recent_ = {};
  links_ = 0;
}

CongestionMap::Bucket& CongestionMap::current_bucket() {
  if (cached_bucket_ != nullptr) return *cached_bucket_;
  const PhaseId id = bucket();
  const auto [it, inserted] = phases_.try_emplace(id);
  if (inserted) phase_order_.push_back(id);
  cached_bucket_ = &it->second;
  return *cached_bucket_;
}

void CongestionMap::add(const Run& run) {
  if (run.count == 0) return;
  Bucket& b = current_bucket();
  total_ += run.count;
  max_link_load_ = std::max(max_link_load_, load_.add(run));
  b.occupancy += run.count;
  const index_t peak = b.load.add(run);
  if (peak > b.peak) {
    // The congested clock is the sum of bucket peaks; maintain it
    // incrementally as each bucket's peak rises.
    congested_clock_ += peak - b.peak;
    b.peak = peak;
  }
}

void CongestionMap::on_message(Coord from, Coord to, index_t distance) {
  assert(distance == manhattan(from, to));
  (void)distance;
  ++messages_;
  for (const Run& run : route(from, to)) add(run);
}

void CongestionMap::on_send_bulk(std::span<const MessageEvent> batch) {
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    ++messages_;
    for (const Run& run : route(e.from, e.to)) add(run);
  }
}

void CongestionMap::on_phase_enter(PhaseId id) {
  stack_.push_back(id);
  cached_bucket_ = nullptr;
}

void CongestionMap::on_phase_exit(PhaseId id) {
  (void)id;
  if (stack_.empty()) return;  // imbalance is the checker's to report
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
  phases_.clear();
  phase_order_.clear();
  cached_bucket_ = nullptr;
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
  return load_.at(link.from, dir);
}

std::vector<std::pair<Link, index_t>> CongestionMap::hotspot_links(
    std::size_t k) const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(static_cast<std::size_t>(links()));
  load_.for_each(
      [&](Link link, index_t count) { all.push_back({link, count}); });
  return top_k(std::move(all), k, std::less<Link>{});
}

index_t CongestionMap::percentile(double p) const {
  std::vector<index_t> loads;
  loads.reserve(static_cast<std::size_t>(links()));
  load_.for_each([&](Link, index_t count) { loads.push_back(count); });
  return nearest_rank(std::move(loads), p);
}

std::vector<std::pair<Link, index_t>> CongestionMap::sorted_links() const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(static_cast<std::size_t>(links()));
  load_.for_each(
      [&](Link link, index_t count) { all.push_back({link, count}); });
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return all;
}

std::vector<index_t> CongestionMap::occupancy_multiset() const {
  std::vector<index_t> values;
  values.reserve(static_cast<std::size_t>(links()));
  load_.for_each([&](Link, index_t count) { values.push_back(count); });
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<CongestionMap::PhaseCongestion> CongestionMap::phase_congestion()
    const {
  std::vector<PhaseCongestion> out;
  out.reserve(phase_order_.size());
  for (const PhaseId id : phase_order_) {
    const Bucket& b = phases_.at(id);
    out.push_back(PhaseCongestion{id, b.occupancy, b.load.links(), b.peak});
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
  leaving.reserve(static_cast<std::size_t>(links()));
  load_.for_each(
      [&](Link link, index_t count) { leaving.push_back({link.from, count}); });
  return ramp_heatmap("link", ", max outgoing-link load", leaving, max_side);
}

// ---------------------------------------------------------------------------
// LoadMap

void LoadMap::on_message(Coord from, Coord to, index_t distance) {
  ++sent_.at(from);
  links_.on_message(from, to, distance);
}

void LoadMap::on_send_bulk(std::span<const MessageEvent> batch) {
  for (const MessageEvent& e : batch) {
    if (e.distance != 0) ++sent_.at(e.from);
  }
  links_.on_send_bulk(batch);
}

void LoadMap::on_phase_enter(PhaseId id) { links_.on_phase_enter(id); }

void LoadMap::on_phase_exit(PhaseId id) { links_.on_phase_exit(id); }

index_t LoadMap::load_at(Coord c) const {
  const index_t* sent = sent_.find(c);
  index_t load = sent == nullptr ? 0 : *sent;
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
  std::size_t senders = 0;
  sent_.for_each([&](Coord, index_t) { ++senders; });
  load.reserve(senders);
  sent_.for_each([&](Coord c, index_t n) { load.emplace(c, n); });
  links_.load_.for_each(
      [&](Link link, index_t count) { load[link.to] += count; });
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
