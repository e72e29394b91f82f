#include "qsa/util/interner.hpp"

#include "qsa/util/expects.hpp"

namespace qsa::util {

Interner::Id Interner::intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const Id id = static_cast<Id>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

Interner::Id Interner::find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kInvalid : it->second;
}

std::string_view Interner::name(Id id) const {
  QSA_EXPECTS(id < names_.size());
  return names_[id];
}

}  // namespace qsa::util
