// Records a Machine's trace-event stream once, then replays it: through a
// fresh Machine (to time charging alone) or straight into any TraceSink's
// hooks (to time that sink alone). Only the public TraceSink / Machine API
// is used, so the layer timings need no instrumentation inside the
// simulator.
#pragma once

#include "spatial/machine.hpp"
#include "spatial/metrics.hpp"
#include "spatial/trace.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

enum class EventKind : std::uint8_t {
  kSend,        ///< scalar Machine::send (on_message + on_send)
  kSendBulk,    ///< Machine::send_bulk batch
  kOp,          ///< Machine::op / op_bulk
  kBirth,       ///< Machine::birth
  kBirthBulk,   ///< Machine::birth_bulk batch
  kDeath,       ///< Machine::death
  kDeathBulk,   ///< Machine::death_bulk batch
  kPhaseEnter,  ///< Machine::begin_phase
  kPhaseExit,   ///< Machine::end_phase
  kReset,       ///< Machine construction or reset
};

/// One recorded hook call. `first`/`count` index the stream's pool for the
/// event's kind (messages, births or deaths); for kOp `first` is the op
/// count and for phase events the PhaseId.
struct Event {
  EventKind kind{EventKind::kReset};
  std::uint64_t first{0};
  std::uint64_t count{0};
  /// Reason of the ScopedUnorderedDelivery scope active when a bulk send
  /// was emitted (nullptr outside any scope). Replays re-enter the scope,
  /// so the independence checks see the same exemptions as the live run.
  const char* unordered{nullptr};
};

/// Exact counts of what the recorded run asked of the charging layer.
struct StreamCounts {
  std::uint64_t scalar_sends{0};  ///< charged scalar sends
  std::uint64_t bulk_batches{0};  ///< send_bulk events (>= 1 charged entry)
  std::uint64_t bulk_entries{0};  ///< charged entries over those batches
  std::uint64_t phase_enters{0};
  std::uint64_t resets{0};
  std::uint64_t dispatches{0};  ///< TraceSink hook calls made to one sink

  friend bool operator==(const StreamCounts&, const StreamCounts&) = default;
};

/// A recorded event stream. Scalar sends and bulk entries share the
/// `messages` pool; every MessageEvent keeps the distance and arrival the
/// live Machine filled in.
struct Stream {
  std::vector<Event> events;
  std::vector<scm::MessageEvent> messages;
  std::vector<scm::BirthEvent> births;
  std::vector<scm::Coord> deaths;
  StreamCounts counts;

  void clear();
};

/// TraceSink that appends every hook call to a Stream. Attach it to one
/// Machine (per-machine or global); a second Machine's events would
/// interleave and make the stream unreplayable.
class Recorder final : public scm::TraceSink {
 public:
  [[nodiscard]] const Stream& stream() const { return stream_; }
  [[nodiscard]] Stream& stream() { return stream_; }
  void clear() { stream_.clear(); }

  void on_message(scm::Coord from, scm::Coord to,
                  scm::index_t distance) override;
  void on_send(const scm::MessageEvent& e) override;
  void on_send_bulk(std::span<const scm::MessageEvent> batch) override;
  void on_op(scm::index_t n) override;
  void on_birth(scm::Coord at, scm::Clock c) override;
  void on_birth_bulk(std::span<const scm::BirthEvent> batch) override;
  void on_death(scm::Coord at) override;
  void on_death_bulk(std::span<const scm::Coord> batch) override;
  void on_phase_enter(scm::PhaseId id) override;
  void on_phase_exit(scm::PhaseId id) override;
  void on_reset() override;

 private:
  Stream stream_;
};

/// Replays `stream` through a fresh Machine (send / send_bulk / op_bulk /
/// birth* / death* / begin_phase / end_phase / reset) and returns its
/// Metrics, which equal the recorded run's. A leading reset is the
/// recorded Machine's construction and is not replayed. Bulk entries are
/// charged in place: the Machine rewrites their distance and arrival with
/// the values they already hold.
[[nodiscard]] scm::Metrics replay_machine(Stream& stream);

/// Replays `stream` into `sink`'s hooks exactly as a Machine emits them
/// (a scalar send is on_message followed by on_send).
void replay_sink(const Stream& stream, scm::TraceSink& sink);

}  // namespace perfbench
