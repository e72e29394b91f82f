// The DHT-backed service directory: the "Discover service instances" step of
// Section 3.2. Service instances are published into the Chord ring under
// their abstract service's key; a requesting peer discovers the candidate
// instances for each service on its abstract path via Chord lookups (paying
// routing hops/latency), then reads each candidate's QoS specification from
// the catalog and its provider list from the placement map — in the real
// system both travel in the lookup response.
//
// Registrations are soft state: under churn, overlay nodes vanish with part
// of the key space and a periodic republish (re-inserting every instance)
// heals the directory, as P2P registries do. The directory programs against
// the LookupService interface, so it runs unchanged on Chord, CAN or
// Pastry, and is reached only through the DiscoveryBackend seam.
#pragma once

#include <vector>

#include "qsa/cache/discovery_cache.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/overlay/lookup.hpp"
#include "qsa/registry/backend.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/placement.hpp"

namespace qsa::registry {

class ServiceDirectory final : public DiscoveryBackend {
 public:
  ServiceDirectory(std::uint64_t seed, overlay::LookupService& ring,
                   const ServiceCatalog& catalog);

  /// Publishes one instance under its service key. Invalidates only that
  /// service's cached discovery — unrelated cached entries stay warm.
  void publish(InstanceId instance) override;

  /// Publishes every catalog instance (bootstrap and periodic republish).
  void publish_all() override;

  /// DiscoveryBackend departure hook: a departed peer took part of the key
  /// space (and possibly providers of any service) with it, so the whole
  /// cache drops.
  void peer_departed(net::PeerId) override { invalidate_cache(); }

  /// Replica retirement: the instance stays published (other providers
  /// remain), but cached candidate lists were handed out against the wider
  /// pool — drop them all, like the departure path (the directory keys no
  /// state on (instance, host), so a narrower scope has nothing to target).
  void provider_retired(InstanceId, net::PeerId) override {
    invalidate_cache();
  }

  /// Overlay lookup of the candidate instances for `query.service`, routed
  /// from `query.from`, written into `out` (reusing its buffer); returns
  /// the routing cost. The directory answers by service key alone — the
  /// query's range predicates are ignored (composition and selection
  /// filter downstream). `net` (optional) prices per-hop latency. `now`
  /// feeds the TTL'd discovery cache: a fresh cached entry is served
  /// without routing (zero hops, zero latency) by copy-assigning into
  /// `out`, which allocates nothing once `out`'s capacity has plateaued;
  /// with the cache disabled (the default) every call routes.
  DiscoveryStats discover_into(const DiscoveryQuery& query,
                               const net::NetworkModel* net, sim::SimTime now,
                               std::vector<InstanceId>& out) const override;

  /// Enables the TTL'd discovery cache (zero, the default, disables it —
  /// accounting is then byte-identical to a cacheless directory).
  void set_cache_ttl(sim::SimTime ttl) { cache_.set_ttl(ttl); }

  /// Drops every cached discovery — the peer-departure invalidation scope
  /// (a departure can affect any service's candidate list). publish uses
  /// the narrower per-service invalidate instead.
  void invalidate_cache() const { cache_.invalidate(); }

  /// Attaches observability (`metrics` non-null). Records per-lookup
  /// `directory.lookup_hops` and `directory.lookup_latency_ms` histograms
  /// plus a `directory.lookups` counter; when the discovery cache is
  /// enabled (set the TTL first), also its `cache.discovery.*` counters.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  [[nodiscard]] overlay::Key key_of(ServiceId service) const;

  std::uint64_t seed_;
  overlay::LookupService& ring_;
  const ServiceCatalog& catalog_;
  // Logically the requesters' soft-state lookup cache, not directory state:
  // reads mutate only it (mutable), and const users (the algorithms hold a
  // const directory) still benefit.
  mutable cache::DiscoveryCache cache_;

  obs::Counter* lookups_ = nullptr;
  obs::Histogram* lookup_hops_ = nullptr;
  obs::Histogram* lookup_latency_ = nullptr;
};

}  // namespace qsa::registry
