#include "spatial/trace.hpp"

namespace scm {

FanoutSink::FanoutSink(std::vector<TraceSink*> sinks) {
  for (TraceSink* s : sinks) add(s);
}

void FanoutSink::add(TraceSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void FanoutSink::on_message(Coord from, Coord to, index_t distance) {
  for (TraceSink* s : sinks_) s->on_message(from, to, distance);
}

void FanoutSink::on_send(const MessageEvent& e) {
  for (TraceSink* s : sinks_) s->on_send(e);
}

void FanoutSink::on_send_bulk(std::span<const MessageEvent> batch) {
  for (TraceSink* s : sinks_) s->on_send_bulk(batch);
}

void FanoutSink::on_op(index_t n) {
  for (TraceSink* s : sinks_) s->on_op(n);
}

void FanoutSink::on_observe(Clock c) {
  for (TraceSink* s : sinks_) s->on_observe(c);
}

void FanoutSink::on_birth(Coord at, Clock c) {
  for (TraceSink* s : sinks_) s->on_birth(at, c);
}

void FanoutSink::on_birth_bulk(std::span<const BirthEvent> batch) {
  for (TraceSink* s : sinks_) s->on_birth_bulk(batch);
}

void FanoutSink::on_death(Coord at) {
  for (TraceSink* s : sinks_) s->on_death(at);
}

void FanoutSink::on_death_bulk(std::span<const Coord> batch) {
  for (TraceSink* s : sinks_) s->on_death_bulk(batch);
}

void FanoutSink::on_phase_enter(PhaseId id) {
  for (TraceSink* s : sinks_) s->on_phase_enter(id);
}

void FanoutSink::on_phase_exit(PhaseId id) {
  for (TraceSink* s : sinks_) s->on_phase_exit(id);
}

void FanoutSink::on_reset() {
  for (TraceSink* s : sinks_) s->on_reset();
}

}  // namespace scm
