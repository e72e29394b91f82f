#include "qsa/workload/apps.hpp"

#include <string>

#include "qsa/util/expects.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::workload {

std::string_view to_string(QosLevel level) {
  switch (level) {
    case QosLevel::kLow:
      return "low";
    case QosLevel::kAverage:
      return "average";
    case QosLevel::kHigh:
      return "high";
  }
  return "?";
}

qos::QosVector requirement_for(QosLevel level,
                               const registry::QosUniverse& u) {
  double floor = 10;
  switch (level) {
    case QosLevel::kLow:
      floor = 10;
      break;
    case QosLevel::kAverage:
      floor = 40;
      break;
    case QosLevel::kHigh:
      floor = 70;
      break;
  }
  qos::QosVector req;
  req.set(u.level, qos::QosValue::range(floor, 100.0));
  return req;
}

ApplicationCatalog::ApplicationCatalog(
    registry::ServiceCatalog& services, const registry::QosUniverse& universe,
    const qos::AnalyticTranslator& translator, const AppCatalogParams& params,
    std::uint64_t seed) {
  QSA_EXPECTS(params.applications >= 1);
  QSA_EXPECTS(params.min_path_len >= 1);
  QSA_EXPECTS(params.max_path_len >= params.min_path_len);

  util::Rng rng(util::derive_seed(seed, "apps", 0));
  apps_.reserve(static_cast<std::size_t>(params.applications));
  for (int a = 0; a < params.applications; ++a) {
    Application app;
    app.id = static_cast<std::uint32_t>(a);
    const int len = static_cast<int>(
        rng.uniform_int(params.min_path_len, params.max_path_len));
    for (int p = 0; p < len; ++p) {
      const registry::ServiceId sid = services.add_service(
          "app" + std::to_string(a) + ".svc" + std::to_string(p));
      generate_instances(services, sid,
                         util::derive_seed(seed, "instances", sid), universe,
                         translator, /*is_source=*/p == 0);
      app.path.push_back(sid);
    }
    apps_.push_back(std::move(app));
  }
}

const Application& ApplicationCatalog::app(std::uint32_t id) const {
  QSA_EXPECTS(id < apps_.size());
  return apps_[id];
}

}  // namespace qsa::workload
