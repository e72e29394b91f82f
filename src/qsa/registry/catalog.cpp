#include "qsa/registry/catalog.hpp"

#include <algorithm>
#include <utility>

#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::registry {
namespace {

// Instance generation, fixed at the paper's setup.
constexpr int kMinInstancesPerService = 10;  // paper: 10
constexpr int kMaxInstancesPerService = 20;  // paper: 20
constexpr int kFormats = 4;                  // symbolic format universe size
// Probability an instance accepts any input format (omits the format
// dimension from Qin). Keeps layered paths plentiful, mirroring services
// that handle several codecs.
constexpr double kAnyFormatProb = 0.4;
// Quality-window widths: input acceptance, then output.
constexpr double kMinInWidth = 40, kMaxInWidth = 70;
constexpr double kMinOutWidth = 5, kMaxOutWidth = 15;

}  // namespace

ServiceId ServiceCatalog::add_service(std::string name) {
  const ServiceId id = static_cast<ServiceId>(services_.size());
  by_name_.emplace(name, id);  // first registration wins on duplicates
  services_.push_back(AbstractService{id, std::move(name)});
  by_service_.emplace_back();
  return id;
}

std::optional<ServiceId> ServiceCatalog::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

InstanceId ServiceCatalog::add_instance(ServiceInstance instance) {
  QSA_EXPECTS(instance.service < services_.size());
  QSA_EXPECTS(instance.resources.nonnegative());
  QSA_EXPECTS(instance.bandwidth_kbps >= 0);
  const InstanceId id = static_cast<InstanceId>(instances_.size());
  instance.id = id;
  by_service_[instance.service].push_back(id);
  instances_.push_back(std::move(instance));
  return id;
}

const AbstractService& ServiceCatalog::service(ServiceId id) const {
  QSA_EXPECTS(id < services_.size());
  return services_[id];
}

const ServiceInstance& ServiceCatalog::instance(InstanceId id) const {
  QSA_EXPECTS(id < instances_.size());
  return instances_[id];
}

std::span<const InstanceId> ServiceCatalog::instances_of(ServiceId id) const {
  QSA_EXPECTS(id < services_.size());
  return by_service_[id];
}

QosUniverse QosUniverse::standard(util::Interner& interner) {
  return QosUniverse{interner.intern("format"), interner.intern("level")};
}

void generate_instances(ServiceCatalog& catalog, ServiceId service,
                        std::uint64_t seed, const QosUniverse& qos,
                        const qos::AnalyticTranslator& translator,
                        bool is_source) {
  util::Rng rng(util::derive_seed(seed, "catalog", service));
  const int count = static_cast<int>(
      rng.uniform_int(kMinInstancesPerService, kMaxInstancesPerService));

  for (int i = 0; i < count; ++i) {
    ServiceInstance inst;
    inst.service = service;

    if (!is_source) {
      // Input acceptance: a wide quality window; format either pinned to one
      // symbol or omitted (accepts anything).
      const double in_width = rng.uniform(kMinInWidth, kMaxInWidth);
      const double in_center = rng.uniform(20.0, 80.0);
      const double in_lo = std::max(0.0, in_center - in_width / 2);
      const double in_hi = std::min(100.0, in_center + in_width / 2);
      inst.qin.set(qos.level, qos::QosValue::range(in_lo, in_hi));
      if (!rng.bernoulli(kAnyFormatProb)) {
        inst.qin.set(qos.format,
                     qos::QosValue::symbol(static_cast<qos::Symbol>(
                         rng.index(static_cast<std::size_t>(kFormats)))));
      }
    }

    // Output: a narrow quality window and a definite format.
    const double out_width = rng.uniform(kMinOutWidth, kMaxOutWidth);
    const double out_center = rng.uniform(10.0, 90.0);
    const double out_lo = std::max(0.0, out_center - out_width / 2);
    const double out_hi = std::min(100.0, out_center + out_width / 2);
    inst.qout.set(qos.level, qos::QosValue::range(out_lo, out_hi));
    inst.qout.set(qos.format,
                  qos::QosValue::symbol(static_cast<qos::Symbol>(
                      rng.index(static_cast<std::size_t>(kFormats)))));

    inst.resources = translator.resources(inst.qin, inst.qout);
    inst.bandwidth_kbps = translator.bandwidth_kbps(inst.qout);
    catalog.add_instance(std::move(inst));
  }
}

}  // namespace qsa::registry
