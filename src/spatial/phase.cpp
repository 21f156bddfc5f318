#include "spatial/phase.hpp"

#include <cassert>

namespace scm {

PhaseRegistry& PhaseRegistry::instance() {
  static PhaseRegistry registry;
  return registry;
}

PhaseId PhaseRegistry::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<PhaseId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

PhaseId PhaseRegistry::find(std::string_view name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kNoPhase : it->second;
}

const std::string& PhaseRegistry::name(PhaseId id) const {
  assert(id < names_.size());
  return names_[id];
}

const std::string& phase_label(PhaseId id) {
  static const std::string kTop = "<top>";
  return id == kNoPhase ? kTop : PhaseRegistry::instance().name(id);
}

}  // namespace scm
