// The service catalog: all abstract services and their instances, plus the
// generator reproducing the paper's experimental distributions (Section 4.1:
// 10-20 instances per service, random Qin/Qout/R). The distributions are
// fixed at the paper's setup (constants in catalog.cpp); only the seed
// varies.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "qsa/qos/translator.hpp"
#include "qsa/registry/service.hpp"
#include "qsa/util/interner.hpp"

namespace qsa::registry {

class ServiceCatalog {
 public:
  ServiceId add_service(std::string name);
  InstanceId add_instance(ServiceInstance instance);

  [[nodiscard]] const AbstractService& service(ServiceId id) const;
  [[nodiscard]] const ServiceInstance& instance(InstanceId id) const;
  [[nodiscard]] std::span<const InstanceId> instances_of(ServiceId id) const;

  /// Resolves a service by name (as the abstract-path parser needs).
  [[nodiscard]] std::optional<ServiceId> find(std::string_view name) const;

  [[nodiscard]] std::size_t service_count() const noexcept {
    return services_.size();
  }
  [[nodiscard]] std::size_t instance_count() const noexcept {
    return instances_.size();
  }

 private:
  std::vector<AbstractService> services_;
  std::vector<ServiceInstance> instances_;
  std::vector<std::vector<InstanceId>> by_service_;
  std::unordered_map<std::string, ServiceId> by_name_;
};

/// Well-known QoS parameter names used by the generated universe.
struct QosUniverse {
  qos::ParamId format;  ///< single-value (symbolic) dimension
  qos::ParamId level;   ///< range dimension in [0, 100]

  /// Interns the parameter names into `interner`.
  [[nodiscard]] static QosUniverse standard(util::Interner& interner);
};

/// Generates instances for `service` from `seed`, using `translator` for R
/// and b. `is_source` instances have empty Qin (data sources accept no
/// input).
void generate_instances(ServiceCatalog& catalog, ServiceId service,
                        std::uint64_t seed, const QosUniverse& qos,
                        const qos::AnalyticTranslator& translator,
                        bool is_source);

}  // namespace qsa::registry
