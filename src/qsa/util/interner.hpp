// String interner: maps names (QoS parameter names, service names, format
// symbols) to dense 32-bit ids so hot-path comparisons are integer equality.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qsa::util {

class Interner {
 public:
  using Id = std::uint32_t;
  static constexpr Id kInvalid = ~Id{0};

  /// Returns the id for `name`, creating one if new.
  Id intern(std::string_view name);

  /// Returns the id for `name` or kInvalid if never interned.
  [[nodiscard]] Id find(std::string_view name) const;

  /// Returns the name for a valid id.
  [[nodiscard]] std::string_view name(Id id) const;

  [[nodiscard]] std::size_t size() const noexcept { return names_.size(); }

 private:
  // Transparent hash: lookups take a string_view directly, no temporary
  // std::string per probe.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, Id, Hash, std::equal_to<>> ids_;
  std::vector<std::string> names_;
};

}  // namespace qsa::util
