#include "spatial/profile.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <sstream>
#include <string_view>

namespace scm {

namespace {

/// JSON string escaping per RFC 8259 (control characters as \u00XX).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(ch));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string phase_name(PhaseId id) {
  return id == kNoPhase ? std::string("<top>")
                        : PhaseRegistry::instance().name(id);
}

void append_coord(std::ostringstream& os, Coord c) {
  os << '[' << c.row << ',' << c.col << ']';
}

void append_clock(std::ostringstream& os, Clock c) {
  os << "{\"depth\":" << c.depth << ",\"distance\":" << c.distance << '}';
}

}  // namespace

void DistanceHistogram::add(index_t distance) {
  assert(distance >= 1);
  const auto b = static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(distance)) - 1);
  if (b >= buckets.size()) buckets.resize(b + 1, 0);
  ++buckets[b];
  ++count;
  max_distance = std::max(max_distance, distance);
}

index_t DistanceHistogram::percentile_lower_bound(double p) const {
  if (count == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest rank covering p percent of the messages.
  const auto rank = std::max<index_t>(
      1, static_cast<index_t>(std::ceil(p / 100.0 *
                                        static_cast<double>(count))));
  index_t seen = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    seen += buckets[b];
    if (seen >= rank) return static_cast<index_t>(index_t{1} << b);
  }
  return static_cast<index_t>(index_t{1} << (buckets.size() - 1));
}

index_t Profiler::WitnessChain::total_distance() const {
  index_t sum = 0;
  for (const WitnessHop& h : hops) sum += h.distance;
  return sum;
}

namespace {

/// The embedded checker reports through the JSON artifact, never aborts:
/// a --profile run under SCM_STRICT_MODEL still produces its report (the
/// harness/fuzzer checkers own the abort-on-violation policy).
IndependenceChecker::Config embedded_independence_config() {
  IndependenceChecker::Config config;
  config.strict = false;
  return config;
}

}  // namespace

Profiler::Profiler(Options options) : options_(options) {
  nodes_.push_back(PhaseNode{});
  // One link map serves both report sections: the LoadMap's own when the
  // load map is on, so each message is routed at most once.
  if (options_.load_map) {
    load_map_ = std::make_unique<LoadMap>();
    router_ = load_map_.get();
  } else if (options_.congestion) {
    congestion_ = std::make_unique<CongestionMap>();
    router_ = congestion_.get();
  }
  if (options_.independence) {
    independence_ =
        std::make_unique<IndependenceChecker>(embedded_independence_config());
  }
}

std::uint32_t Profiler::child_of(std::uint32_t parent, PhaseId id) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(parent) << 32) | id;
  const auto [it, inserted] =
      edges_.try_emplace(key, static_cast<std::uint32_t>(nodes_.size()));
  if (inserted) {
    PhaseNode node;
    node.phase = id;
    node.parent = parent;
    node.depth = nodes_[parent].depth + 1;
    nodes_[parent].children.push_back(it->second);
    nodes_.push_back(std::move(node));
  }
  return it->second;
}

void Profiler::on_message(Coord from, Coord to, index_t distance) {
  if (router_ != nullptr) router_->on_message(from, to, distance);
}

void Profiler::on_send(const MessageEvent& e) {
  ++ticks_;
  totals_.energy += e.distance;
  ++totals_.messages;
  totals_.max_clock = Clock::join(totals_.max_clock, e.arrival);
  PhaseNode& node = nodes_[cur_];
  node.self_energy += e.distance;
  ++node.self_messages;
  node.hist.add(e.distance);
  if (options_.witness) {
    record_witness(WitnessEvent{e.from, e.to, e.distance, e.payload,
                                e.arrival, cur_, /*is_birth=*/false});
  }
  if (independence_ != nullptr) independence_->on_send(e);
}

void Profiler::on_send_bulk(std::span<const MessageEvent> batch) {
  if (independence_ != nullptr) independence_->on_send_bulk(batch);
  if (router_ != nullptr) router_->on_send_bulk(batch);
  index_t energy = 0;
  index_t messages = 0;
  Clock max{};
  // nodes_ only grows at phase transitions, so the current node's
  // reference is stable for the whole batch.
  PhaseNode& node = nodes_[cur_];
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    ++ticks_;
    energy += e.distance;
    ++messages;
    max = Clock::join(max, e.arrival);
    node.hist.add(e.distance);
    if (options_.witness) {
      record_witness(WitnessEvent{e.from, e.to, e.distance, e.payload,
                                  e.arrival, cur_, /*is_birth=*/false});
    }
  }
  totals_.energy += energy;
  totals_.messages += messages;
  totals_.max_clock = Clock::join(totals_.max_clock, max);
  node.self_energy += energy;
  node.self_messages += messages;
}

void Profiler::on_op(index_t n) {
  ++ticks_;
  totals_.local_ops += n;
  nodes_[cur_].self_ops += n;
}

void Profiler::on_birth(Coord at, Clock c) {
  ++ticks_;
  totals_.max_clock = Clock::join(totals_.max_clock, c);
  if (options_.witness) {
    record_witness(
        WitnessEvent{at, at, 0, c, c, cur_, /*is_birth=*/true});
  }
  if (independence_ != nullptr) independence_->on_birth(at, c);
}

void Profiler::on_birth_bulk(std::span<const BirthEvent> batch) {
  Clock max{};
  for (const BirthEvent& b : batch) {
    ++ticks_;
    max = Clock::join(max, b.clock);
    if (options_.witness) {
      record_witness(
          WitnessEvent{b.at, b.at, 0, b.clock, b.clock, cur_,
                       /*is_birth=*/true});
    }
  }
  totals_.max_clock = Clock::join(totals_.max_clock, max);
  if (independence_ != nullptr) independence_->on_birth_bulk(batch);
}

void Profiler::on_death(Coord at) {
  if (independence_ != nullptr) independence_->on_death(at);
}

void Profiler::on_death_bulk(std::span<const Coord> batch) {
  if (independence_ != nullptr) independence_->on_death_bulk(batch);
}

void Profiler::record_witness(const WitnessEvent& e) {
  const auto idx = static_cast<std::uint32_t>(events_.size());
  events_.push_back(e);
  first_depth_.try_emplace(e.arrival.depth, idx);
  first_distance_.try_emplace(e.arrival.distance, idx);
}

void Profiler::on_phase_enter(PhaseId id) {
  if (router_ != nullptr) router_->on_phase_enter(id);
  stack_.push_back(id);
  cur_ = child_of(cur_, id);
  ScopeEvent s{true, id, ticks_, totals_.energy};
  if (const CongestionMap* cm = congestion(); cm != nullptr) {
    s.max_link_load = cm->max_link_load();
    s.congested_clock = cm->congested_clock();
  }
  scopes_.push_back(s);
  if (independence_ != nullptr) independence_->on_phase_enter(id);
}

void Profiler::on_phase_exit(PhaseId id) {
  if (independence_ != nullptr) independence_->on_phase_exit(id);
  if (router_ != nullptr) router_->on_phase_exit(id);
  if (stack_.empty()) return;  // imbalance is the checker's to report
  stack_.pop_back();
  cur_ = nodes_[cur_].parent;
  ScopeEvent s{false, id, ticks_, totals_.energy};
  if (const CongestionMap* cm = congestion(); cm != nullptr) {
    s.max_link_load = cm->max_link_load();
    s.congested_clock = cm->congested_clock();
  }
  scopes_.push_back(s);
}

void Profiler::on_reset() { clear(); }

void Profiler::clear() {
  totals_ = Metrics{};
  nodes_.clear();
  nodes_.push_back(PhaseNode{});
  edges_.clear();
  cur_ = 0;
  scopes_.clear();
  ticks_ = 0;
  events_.clear();
  first_depth_.clear();
  first_distance_.clear();
  // The link map's clear() preserves its own mirrored phase stack (it
  // sees every enter/exit we forward), so no replay below — replaying
  // would double-enter the surviving scopes.
  if (load_map_ != nullptr) load_map_->clear();
  if (congestion_ != nullptr) congestion_->clear();
  if (independence_ != nullptr) {
    // An exported artifact describes the run since the last reset, so the
    // independence record restarts too; the surviving phase stack is
    // replayed into the fresh checker below.
    independence_ =
        std::make_unique<IndependenceChecker>(embedded_independence_config());
  }
  // Like Machine::reset, open PhaseScopes keep attributing: rebuild the
  // spine of the surviving phase stack at tick 0.
  for (const PhaseId id : stack_) {
    cur_ = child_of(cur_, id);
    scopes_.push_back(ScopeEvent{true, id, 0, 0});
    if (independence_ != nullptr) independence_->on_phase_enter(id);
  }
}

const LoadMap* Profiler::load_map() const { return load_map_.get(); }

const CongestionMap* Profiler::congestion() const {
  if (!options_.congestion) return nullptr;
  return load_map_ != nullptr ? &load_map_->links() : congestion_.get();
}

const IndependenceChecker* Profiler::independence() const {
  return independence_.get();
}

std::vector<std::string> Profiler::phase_path(std::uint32_t node) const {
  std::vector<std::string> names;
  for (std::uint32_t i = node; i != 0; i = nodes_[i].parent) {
    names.push_back(PhaseRegistry::instance().name(nodes_[i].phase));
  }
  std::reverse(names.begin(), names.end());
  return names;
}

Profiler::WitnessChain Profiler::reconstruct_chain(bool by_depth) const {
  // Backward component-wise walk. Every payload clock of a conforming
  // execution is a join (component-wise max) of previously observed
  // clocks, so each component value on the chain was achieved by some
  // earlier recorded event; the first achiever is a valid predecessor.
  // The needed component strictly decreases (a hop adds >= 1 to depth
  // and >= 1 to distance), so the walk terminates.
  const auto& first = by_depth ? first_depth_ : first_distance_;
  const auto component = [by_depth](Clock c) {
    return by_depth ? c.depth : c.distance;
  };
  WitnessChain chain;
  index_t need = component(totals_.max_clock);
  std::vector<WitnessHop> reversed;
  while (need > 0) {
    const auto it = first.find(need);
    if (it == first.end()) {
      // Only possible when the profiler missed part of the history
      // (attached mid-run or raised via Machine::observe of a clock with
      // no recorded origin).
      chain.complete = false;
      break;
    }
    const WitnessEvent& e = events_[it->second];
    if (e.is_birth) {
      chain.start_clock = e.arrival;
      break;
    }
    reversed.push_back(WitnessHop{e.from, e.to, e.distance, e.payload,
                                  e.arrival, phase_path(e.node)});
    need = component(e.payload);
  }
  chain.hops.assign(reversed.rbegin(), reversed.rend());
  return chain;
}

Profiler::CriticalPathWitness Profiler::critical_path() const {
  CriticalPathWitness path;
  if (!options_.witness) return path;
  path.enabled = true;
  path.depth_chain = reconstruct_chain(/*by_depth=*/true);
  path.distance_chain = reconstruct_chain(/*by_depth=*/false);
  return path;
}

std::vector<Metrics> Profiler::rolled_up_totals() const {
  std::vector<Metrics> totals(nodes_.size());
  // Children always have larger indices than their parent, so a reverse
  // index sweep is bottom-up.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    const PhaseNode& node = nodes_[i];
    Metrics& t = totals[i];
    t.energy += node.self_energy;
    t.messages += node.self_messages;
    t.local_ops += node.self_ops;
    if (i != 0) {
      Metrics& p = totals[node.parent];
      p.energy += t.energy;
      p.messages += t.messages;
      p.local_ops += t.local_ops;
    }
  }
  return totals;
}

std::string Profiler::ascii_report() const {
  const std::vector<Metrics> totals = rolled_up_totals();
  std::ostringstream os;
  os << "phase tree (energy = Manhattan-distance units; dist = per-message "
        "p50/max)\n";
  os << std::left << std::setw(40) << "phase" << std::right
     << std::setw(12) << "energy" << std::setw(12) << "self"
     << std::setw(10) << "msgs" << std::setw(12) << "ops" << std::setw(12)
     << "dist" << "\n";
  // Depth-first over the tree in creation (= first-entered) order.
  std::vector<std::uint32_t> dfs{0};
  while (!dfs.empty()) {
    const std::uint32_t i = dfs.back();
    dfs.pop_back();
    const PhaseNode& node = nodes_[i];
    std::string label(static_cast<std::size_t>(node.depth) * 2, ' ');
    label += phase_name(node.phase);
    if (label.size() > 39) label.resize(39);
    std::string dist = "-";
    if (node.hist.count > 0) {
      dist = std::to_string(node.hist.percentile_lower_bound(50.0)) + "/" +
             std::to_string(node.hist.max_distance);
    }
    os << std::left << std::setw(40) << label << std::right
       << std::setw(12) << totals[i].energy << std::setw(12)
       << node.self_energy << std::setw(10) << totals[i].messages
       << std::setw(12) << totals[i].local_ops << std::setw(12) << dist
       << "\n";
    for (auto it = node.children.rbegin(); it != node.children.rend();
         ++it) {
      dfs.push_back(*it);
    }
  }
  os << "totals: " << totals_.str() << "\n";
  return os.str();
}

std::string Profiler::chrome_trace_json() const {
  // One B/E pair per phase scope over the virtual tick axis ("ts" is in
  // microseconds as far as the viewer is concerned; here 1 us = 1 charged
  // event). Scopes still open at export get a closing E at the final
  // tick so the file is always well-formed.
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"scm simulated run\"}}";
  // When the congestion map is embedded, a "link congestion" counter
  // track rides the same tick axis: one "C" event per phase transition
  // (deduplicated when the counters did not move) plus a closing sample.
  index_t last_load = 0;
  index_t last_clock = 0;
  bool sampled = false;
  const CongestionMap* const cm = congestion();
  const auto counter = [&](std::uint64_t tick, index_t load,
                           index_t clock) {
    if (cm == nullptr) return;
    if (sampled && load == last_load && clock == last_clock) return;
    sampled = true;
    last_load = load;
    last_clock = clock;
    os << ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" << tick
       << ",\"name\":\"link congestion\",\"args\":{\"max_link_load\":"
       << load << ",\"congested_clock\":" << clock << "}}";
  };
  std::int64_t open = 0;
  for (const ScopeEvent& s : scopes_) {
    os << ",\n{\"ph\":\"" << (s.enter ? 'B' : 'E') << "\",\"pid\":0,"
       << "\"tid\":0,\"ts\":" << s.tick << ",\"name\":\""
       << json_escape(phase_name(s.phase)) << "\",\"cat\":\"phase\","
       << "\"args\":{\"energy\":" << s.energy << "}}";
    counter(s.tick, s.max_link_load, s.congested_clock);
    open += s.enter ? 1 : -1;
  }
  assert(open == static_cast<std::int64_t>(stack_.size()));
  (void)open;
  for (std::size_t i = stack_.size(); i-- > 0;) {
    os << ",\n{\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":" << ticks_
       << ",\"name\":\"" << json_escape(phase_name(stack_[i]))
       << "\",\"cat\":\"phase\",\"args\":{\"energy\":" << totals_.energy
       << "}}";
  }
  if (cm != nullptr) {
    sampled = false;  // always close the track at the final tick
    counter(ticks_, cm->max_link_load(), cm->congested_clock());
  }
  os << "\n]}\n";
  return os.str();
}

namespace {

void append_metrics(std::ostringstream& os, const Metrics& m) {
  os << "{\"energy\":" << m.energy << ",\"messages\":" << m.messages
     << ",\"local_ops\":" << m.local_ops << ",\"depth\":" << m.depth()
     << ",\"distance\":" << m.distance() << '}';
}

void append_chain(std::ostringstream& os,
                  const Profiler::WitnessChain& chain) {
  os << "{\"complete\":" << (chain.complete ? "true" : "false")
     << ",\"hops\":" << chain.hop_count()
     << ",\"total_distance\":" << chain.total_distance()
     << ",\"start_clock\":";
  append_clock(os, chain.start_clock);
  os << ",\"messages\":[";
  for (std::size_t i = 0; i < chain.hops.size(); ++i) {
    const Profiler::WitnessHop& h = chain.hops[i];
    if (i != 0) os << ',';
    os << "\n{\"from\":";
    append_coord(os, h.from);
    os << ",\"to\":";
    append_coord(os, h.to);
    os << ",\"distance\":" << h.distance << ",\"payload\":";
    append_clock(os, h.payload);
    os << ",\"arrival\":";
    append_clock(os, h.arrival);
    os << ",\"phases\":[";
    for (std::size_t p = 0; p < h.phases.size(); ++p) {
      if (p != 0) os << ',';
      os << '"' << json_escape(h.phases[p]) << '"';
    }
    os << "]}";
  }
  os << "]}";
}

}  // namespace

std::string Profiler::json_report() const {
  const std::vector<Metrics> rolled = rolled_up_totals();
  std::ostringstream os;
  os << "{\n\"schema\":\"scm-run-report\",\"schema_version\":"
     << kSchemaVersion << ",\n\"ticks\":" << ticks_ << ",\n\"totals\":";
  append_metrics(os, totals_);

  // Phase tree, recursively. An explicit stack mirrors ascii_report's
  // DFS; each pop closes the node's "children" array and object.
  os << ",\n\"phase_tree\":";
  struct Frame {
    std::uint32_t node;
    std::size_t next_child{0};
  };
  std::vector<Frame> stack{{0, 0}};
  std::vector<bool> opened(nodes_.size(), false);
  while (!stack.empty()) {
    Frame& f = stack.back();
    const PhaseNode& node = nodes_[f.node];
    if (!opened[f.node]) {
      opened[f.node] = true;
      os << "\n{\"name\":\"" << json_escape(phase_name(node.phase))
         << "\",\"self\":";
      Metrics self;
      self.energy = node.self_energy;
      self.messages = node.self_messages;
      self.local_ops = node.self_ops;
      append_metrics(os, self);
      os << ",\"total\":";
      append_metrics(os, rolled[f.node]);
      os << ",\"distance_histogram\":{\"log2_buckets\":[";
      for (std::size_t b = 0; b < node.hist.buckets.size(); ++b) {
        if (b != 0) os << ',';
        os << node.hist.buckets[b];
      }
      os << "],\"max\":" << node.hist.max_distance << '}';
      os << ",\"children\":[";
    }
    if (f.next_child < node.children.size()) {
      if (f.next_child != 0) os << ',';
      const std::uint32_t child = node.children[f.next_child++];
      stack.push_back(Frame{child, 0});
    } else {
      os << "]}";
      stack.pop_back();
    }
  }

  const CriticalPathWitness path = critical_path();
  os << ",\n\"critical_path\":{\"enabled\":"
     << (path.enabled ? "true" : "false");
  if (path.enabled) {
    os << ",\"depth_chain\":";
    append_chain(os, path.depth_chain);
    os << ",\"distance_chain\":";
    append_chain(os, path.distance_chain);
  }
  os << '}';

  os << ",\n\"load\":{\"enabled\":"
     << (load_map_ != nullptr ? "true" : "false");
  if (load_map_ != nullptr) {
    const LoadMap& lm = *load_map_;
    const LoadMap::Cells cells = lm.cells();  // derived once per export
    os << ",\"messages\":" << lm.messages()
       << ",\"total_load\":" << lm.total_load()
       << ",\"max_load\":" << cells.max_load() << ",\"imbalance\":"
       << cells.imbalance() << ",\"p50\":" << cells.percentile(50.0)
       << ",\"p95\":" << cells.percentile(95.0)
       << ",\"p99\":" << cells.percentile(99.0) << ",\"hotspots\":[";
    const auto spots = cells.hotspots(5);
    for (std::size_t i = 0; i < spots.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"at\":";
      append_coord(os, spots[i].first);
      os << ",\"load\":" << spots[i].second << '}';
    }
    os << ']';
  }
  os << '}';

  os << ",\n\"congestion\":{\"enabled\":"
     << (congestion() != nullptr ? "true" : "false");
  if (congestion() != nullptr) {
    const CongestionMap& cm = *congestion();
    // Invariant CI asserts from artifacts: total_occupancy equals
    // totals.energy (every message of Manhattan distance d crosses
    // exactly d links), and congested_clock >= max_link_load.
    os << ",\"messages\":" << cm.messages()
       << ",\"links\":" << cm.links()
       << ",\"total_occupancy\":" << cm.total_occupancy()
       << ",\"max_link_load\":" << cm.max_link_load()
       << ",\"p50\":" << cm.percentile(50.0)
       << ",\"p95\":" << cm.percentile(95.0)
       << ",\"p99\":" << cm.percentile(99.0)
       << ",\"congested_clock\":" << cm.congested_clock()
       << ",\"hotspots\":[";
    const auto spots = cm.hotspot_links(5);
    for (std::size_t i = 0; i < spots.size(); ++i) {
      if (i != 0) os << ',';
      os << "{\"from\":";
      append_coord(os, spots[i].first.from);
      os << ",\"to\":";
      append_coord(os, spots[i].first.to);
      os << ",\"load\":" << spots[i].second << '}';
    }
    os << "],\"phases\":[";
    const auto phases = cm.phase_congestion();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const CongestionMap::PhaseCongestion& pc = phases[i];
      if (i != 0) os << ',';
      const double mean =
          pc.links == 0 ? 0.0
                        : static_cast<double>(pc.occupancy) /
                              static_cast<double>(pc.links);
      os << "\n{\"name\":\"" << json_escape(phase_name(pc.phase))
         << "\",\"peak\":" << pc.peak << ",\"links\":" << pc.links
         << ",\"mean\":" << mean << ",\"occupancy\":" << pc.occupancy
         << '}';
    }
    os << ']';
  }
  os << '}';

  os << ",\n\"independence\":{\"enabled\":"
     << (independence_ != nullptr ? "true" : "false");
  if (independence_ != nullptr) {
    const IndependenceReport& rep = independence_->report();
    os << ",\"ok\":" << (rep.ok() ? "true" : "false") << ",\"conflicts\":{"
       << "\"total\":" << rep.violations.size() << ",\"write_write\":"
       << rep.count(IndependenceViolationKind::kWriteWriteConflict)
       << ",\"read_write\":"
       << rep.count(IndependenceViolationKind::kReadWriteHazard)
       << ",\"aliasing\":"
       << rep.count(IndependenceViolationKind::kGatherScatterAliasing)
       << "},\"batches\":" << rep.batches
       << ",\"bulk_messages\":" << rep.bulk_messages
       << ",\"exempted_batches\":" << rep.exempted_batches
       << ",\"max_fan_in\":" << rep.max_fan_in << ",\"phases\":[";
    bool first = true;
    for (const auto& [name, fp] : rep.per_phase) {
      if (!first) os << ',';
      first = false;
      os << "\n{\"name\":\"" << json_escape(name)
         << "\",\"batches\":" << fp.batches
         << ",\"bulk_messages\":" << fp.bulk_messages
         << ",\"max_batch\":" << fp.max_batch
         << ",\"max_fan_in\":" << fp.max_fan_in
         << ",\"exempted_batches\":" << fp.exempted_batches
         << ",\"conflicts\":" << fp.conflicts << '}';
    }
    os << ']';
  }
  os << "}\n}\n";
  return os.str();
}

}  // namespace scm
