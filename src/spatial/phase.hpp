// Interned phase identifiers for cost attribution.
//
// Phase names are how algorithms label cost-attribution scopes
// ("mergesort2d", "merge2d/base", ...). The Machine charges every message
// to all distinct active phases, so the per-message work must not involve
// the names themselves: the PhaseRegistry interns each name once into a
// dense PhaseId, and everything downstream of a phase transition — the
// Machine's attribution engine, TraceSink phase events, the conformance
// checker's epoch stack — operates on integer ids. Names are rematerialized
// only at reporting boundaries (phases(), violation reports), through
// phase_label().
//
// The registry is process-local and append-only: ids are dense indices in
// interning order and are never recycled, so a PhaseId is valid for the
// life of the process and `vector`s indexed by PhaseId never shrink. Like
// the rest of the simulator, it is single-threaded by design.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace scm {

/// Dense identifier of an interned phase name.
using PhaseId = std::uint32_t;

/// Sentinel for "no phase" (the id space is dense from 0, so the max value
/// can never be a real id in any practical process).
inline constexpr PhaseId kNoPhase = static_cast<PhaseId>(-1);

/// Process-local name interner: one hash lookup per `intern`, O(1) array
/// lookup per `name`. Append-only; never shrinks.
class PhaseRegistry {
 public:
  /// The process-wide registry every Machine and TraceSink shares.
  static PhaseRegistry& instance();

  /// Returns the id of `name`, interning it on first sight.
  PhaseId intern(std::string_view name);

  /// Returns the id of `name` if already interned, kNoPhase otherwise.
  /// Never mutates the registry: query paths (Machine::phase) must not
  /// grow the id space.
  [[nodiscard]] PhaseId find(std::string_view name) const;

  /// The name interned as `id`. Precondition: id < size().
  [[nodiscard]] const std::string& name(PhaseId id) const;

  /// Number of interned names (== the smallest never-issued id).
  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Keys view into names_ (deque: stable under growth), so each interned
  // name is stored exactly once.
  std::unordered_map<std::string_view, PhaseId, StringHash, std::equal_to<>>
      ids_;
  std::deque<std::string> names_;
};

/// Display name of `id` in every report, trace and violation: the
/// interned name, or "<top>" for kNoPhase (traffic outside any phase).
[[nodiscard]] const std::string& phase_label(PhaseId id);

}  // namespace scm
