#include "qsa/obs/registry.hpp"

namespace qsa::obs {

namespace {

// Heterogeneous find-or-emplace: only allocates the key string on first use
// of a name.
template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), typename Map::mapped_type{}).first;
  }
  return it->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view name) {
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return find_or_create(histograms_, name);
}

}  // namespace qsa::obs
