#include "qsa/registry/directory.hpp"

#include "qsa/overlay/chord_id.hpp"
#include "qsa/util/expects.hpp"

namespace qsa::registry {

ServiceDirectory::ServiceDirectory(std::uint64_t seed,
                                   overlay::LookupService& ring,
                                   const ServiceCatalog& catalog)
    : seed_(seed), ring_(ring), catalog_(catalog) {}

overlay::Key ServiceDirectory::key_of(ServiceId service) const {
  return overlay::data_key(seed_, static_cast<std::uint64_t>(service));
}

void ServiceDirectory::publish(InstanceId instance) {
  const ServiceId service = catalog_.instance(instance).service;
  ring_.insert(key_of(service), instance);
  // Scoped invalidation: only this service's candidate list changed, so
  // cached discoveries for every other service stay warm.
  cache_.invalidate(service);
}

void ServiceDirectory::publish_all() {
  for (InstanceId i = 0; i < catalog_.instance_count(); ++i) {
    ring_.insert(key_of(catalog_.instance(i).service), i);
  }
  // One invalidation for the whole republish, not one per instance.
  cache_.invalidate();
}

void ServiceDirectory::set_metrics(obs::MetricsRegistry* metrics) {
  QSA_EXPECTS(metrics != nullptr);
  lookups_ = &metrics->counter("directory.lookups");
  lookup_hops_ = &metrics->histogram("directory.lookup_hops");
  lookup_latency_ = &metrics->histogram("directory.lookup_latency_ms");
  // Gate the cache counters on the feature so knobs-off exports stay
  // byte-identical to builds without the cache layer.
  cache_.set_metrics(cache_.enabled() ? metrics : nullptr);
}

DiscoveryStats ServiceDirectory::discover_into(const DiscoveryQuery& query,
                                               const net::NetworkModel* net,
                                               sim::SimTime now,
                                               std::vector<InstanceId>& out) const {
  const ServiceId service = query.service;
  if (const auto* cached = cache_.find(service, now)) {
    // Served from the requester's soft-state cache: no routing, no hops, no
    // latency, and no lookup recorded — the overlay was never consulted.
    out = *cached;
    return {};
  }
  out.clear();
  const overlay::ChordKey key = key_of(service);
  const overlay::LookupStats stats = ring_.route(key, query.from, net);
  DiscoveryStats cost{stats.hops, stats.latency};
  if (stats.ok()) {
    // Under fault injection a lookup whose hop messages were all lost never
    // reaches an owner: the discovery comes back empty (but still paid for).
    for (std::uint64_t v : ring_.get(key)) {
      out.push_back(static_cast<InstanceId>(v));
    }
    // Only completed lookups are worth remembering; a lost lookup's empty
    // answer is not the directory's state.
    cache_.store(service, out, now);
  }
  if (lookups_ != nullptr) {
    lookups_->add();
    lookup_hops_->observe(cost.hops);
    lookup_latency_->observe(static_cast<double>(cost.latency.as_millis()));
  }
  return cost;
}

}  // namespace qsa::registry
