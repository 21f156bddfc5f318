#include "recorder.hpp"

#include "spatial/independence.hpp"

#include <optional>
#include <utility>

namespace perfbench {

using scm::BirthEvent;
using scm::Coord;
using scm::MessageEvent;

void Stream::clear() {
  events.clear();
  messages.clear();
  births.clear();
  deaths.clear();
  counts = StreamCounts{};
}

void Recorder::on_message(Coord /*from*/, Coord /*to*/,
                          scm::index_t /*distance*/) {
  // Always paired with on_send, which records the event.
  ++stream_.counts.dispatches;
}

void Recorder::on_send(const MessageEvent& e) {
  ++stream_.counts.dispatches;
  ++stream_.counts.scalar_sends;
  stream_.events.push_back({EventKind::kSend, stream_.messages.size(), 1});
  stream_.messages.push_back(e);
}

void Recorder::on_send_bulk(std::span<const MessageEvent> batch) {
  ++stream_.counts.dispatches;
  ++stream_.counts.bulk_batches;
  for (const MessageEvent& e : batch) {
    if (e.distance != 0) ++stream_.counts.bulk_entries;
  }
  const char* reason = scm::ScopedUnorderedDelivery::active()
                           ? scm::ScopedUnorderedDelivery::reason()
                           : nullptr;
  stream_.events.push_back(
      {EventKind::kSendBulk, stream_.messages.size(), batch.size(), reason});
  stream_.messages.insert(stream_.messages.end(), batch.begin(), batch.end());
}

void Recorder::on_op(scm::index_t n) {
  ++stream_.counts.dispatches;
  stream_.events.push_back({EventKind::kOp, static_cast<std::uint64_t>(n)});
}

void Recorder::on_birth(Coord at, scm::Clock c) {
  ++stream_.counts.dispatches;
  stream_.events.push_back({EventKind::kBirth, stream_.births.size(), 1});
  stream_.births.push_back(BirthEvent{at, c});
}

void Recorder::on_birth_bulk(std::span<const BirthEvent> batch) {
  ++stream_.counts.dispatches;
  stream_.events.push_back(
      {EventKind::kBirthBulk, stream_.births.size(), batch.size()});
  stream_.births.insert(stream_.births.end(), batch.begin(), batch.end());
}

void Recorder::on_death(Coord at) {
  ++stream_.counts.dispatches;
  stream_.events.push_back({EventKind::kDeath, stream_.deaths.size(), 1});
  stream_.deaths.push_back(at);
}

void Recorder::on_death_bulk(std::span<const Coord> batch) {
  ++stream_.counts.dispatches;
  stream_.events.push_back(
      {EventKind::kDeathBulk, stream_.deaths.size(), batch.size()});
  stream_.deaths.insert(stream_.deaths.end(), batch.begin(), batch.end());
}

void Recorder::on_phase_enter(scm::PhaseId id) {
  ++stream_.counts.dispatches;
  ++stream_.counts.phase_enters;
  stream_.events.push_back({EventKind::kPhaseEnter, id});
}

void Recorder::on_phase_exit(scm::PhaseId id) {
  ++stream_.counts.dispatches;
  stream_.events.push_back({EventKind::kPhaseExit, id});
}

void Recorder::on_reset() {
  ++stream_.counts.dispatches;
  ++stream_.counts.resets;
  stream_.events.push_back({EventKind::kReset});
}

namespace {

/// Re-enters the recorded ScopedUnorderedDelivery scope, if any, for the
/// lifetime of one replayed bulk send.
class UnorderedScope {
 public:
  explicit UnorderedScope(const char* reason) {
    if (reason != nullptr) scope_.emplace(reason);
  }

 private:
  std::optional<scm::ScopedUnorderedDelivery> scope_;
};

template <class T>
std::span<T> slice(std::vector<T>& pool, const Event& e) {
  return std::span<T>(pool).subspan(e.first, e.count);
}

template <class T>
std::span<const T> slice(const std::vector<T>& pool, const Event& e) {
  return std::span<const T>(pool).subspan(e.first, e.count);
}

}  // namespace

scm::Metrics replay_machine(Stream& stream) {
  scm::Machine m;
  bool started = false;
  for (const Event& e : stream.events) {
    if (e.kind != EventKind::kReset) started = true;
    switch (e.kind) {
      case EventKind::kSend: {
        const MessageEvent& msg = stream.messages[e.first];
        (void)m.send(msg.from, msg.to, msg.payload);
        break;
      }
      case EventKind::kSendBulk: {
        const UnorderedScope scope(e.unordered);
        m.send_bulk(slice(stream.messages, e));
        break;
      }
      case EventKind::kOp:
        m.op_bulk(static_cast<scm::index_t>(e.first));
        break;
      case EventKind::kBirth: {
        const BirthEvent& b = stream.births[e.first];
        m.birth(b.at, b.clock);
        break;
      }
      case EventKind::kBirthBulk:
        m.birth_bulk(slice(std::as_const(stream.births), e));
        break;
      case EventKind::kDeath:
        m.death(stream.deaths[e.first]);
        break;
      case EventKind::kDeathBulk:
        m.death_bulk(slice(std::as_const(stream.deaths), e));
        break;
      case EventKind::kPhaseEnter:
        m.begin_phase(static_cast<scm::PhaseId>(e.first));
        break;
      case EventKind::kPhaseExit:
        m.end_phase();
        break;
      case EventKind::kReset:
        if (started) m.reset();
        break;
    }
  }
  return m.metrics();
}

void replay_sink(const Stream& stream, scm::TraceSink& sink) {
  for (const Event& e : stream.events) {
    switch (e.kind) {
      case EventKind::kSend: {
        const MessageEvent& msg = stream.messages[e.first];
        sink.on_message(msg.from, msg.to, msg.distance);
        sink.on_send(msg);
        break;
      }
      case EventKind::kSendBulk: {
        const UnorderedScope scope(e.unordered);
        sink.on_send_bulk(slice(stream.messages, e));
        break;
      }
      case EventKind::kOp:
        sink.on_op(static_cast<scm::index_t>(e.first));
        break;
      case EventKind::kBirth: {
        const BirthEvent& b = stream.births[e.first];
        sink.on_birth(b.at, b.clock);
        break;
      }
      case EventKind::kBirthBulk:
        sink.on_birth_bulk(slice(stream.births, e));
        break;
      case EventKind::kDeath:
        sink.on_death(stream.deaths[e.first]);
        break;
      case EventKind::kDeathBulk:
        sink.on_death_bulk(slice(stream.deaths, e));
        break;
      case EventKind::kPhaseEnter:
        sink.on_phase_enter(static_cast<scm::PhaseId>(e.first));
        break;
      case EventKind::kPhaseExit:
        sink.on_phase_exit(static_cast<scm::PhaseId>(e.first));
        break;
      case EventKind::kReset:
        sink.on_reset();
        break;
    }
  }
}

}  // namespace perfbench
