// The application universe of Section 4.1: 10 distributed applications,
// each an abstract service path of 2-5 services (source .. sink), exercised
// with session durations of 1-60 minutes and a 3-level end-to-end QoS
// requirement (high / average / low).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qsa/qos/translator.hpp"
#include "qsa/registry/catalog.hpp"

namespace qsa::workload {

struct Application {
  std::uint32_t id = 0;
  /// Abstract service path, source first, sink last.
  std::vector<registry::ServiceId> path;
};

/// The paper's three user QoS levels.
enum class QosLevel : std::uint8_t { kLow, kAverage, kHigh };

[[nodiscard]] std::string_view to_string(QosLevel level);

/// The end-to-end requirement vector for a level: the sink's output quality
/// must land inside [floor(level), 100].
[[nodiscard]] qos::QosVector requirement_for(QosLevel level,
                                             const registry::QosUniverse& u);

/// The application universe's shape; the service instances behind it
/// follow the paper's fixed distributions (registry::generate_instances).
struct AppCatalogParams {
  int applications = 10;   ///< paper: 10
  int min_path_len = 2;    ///< paper: 2
  int max_path_len = 5;    ///< paper: 5
};

/// Builds the abstract applications together with their services and
/// service instances (source services get empty Qin), all drawn from
/// `seed`.
class ApplicationCatalog {
 public:
  ApplicationCatalog(registry::ServiceCatalog& services,
                     const registry::QosUniverse& universe,
                     const qos::AnalyticTranslator& translator,
                     const AppCatalogParams& params, std::uint64_t seed);

  [[nodiscard]] std::span<const Application> apps() const noexcept {
    return apps_;
  }
  [[nodiscard]] const Application& app(std::uint32_t id) const;

 private:
  std::vector<Application> apps_;
};

}  // namespace qsa::workload
