// TTL'd discovery cache (the lookup half of qsa::cache): a requester-side
// soft-state cache over the service directory's Chord/CAN lookups. A hit
// serves the last discovered instance list for an abstract service without
// routing — zero hops and zero latency charged, exactly as a peer replaying
// a recent lookup response from local state would. Entries expire after the
// configured TTL; a single-service registration change (a publish) drops
// only that service's entry, while a republish or peer departure
// drops the whole cache — the soft-state analogue of an invalidation
// broadcast scoped to what actually changed. Within the TTL the
// cache may serve stale instance lists (e.g. a provider that just departed
// silently); downstream selection/admission is responsible for rejecting
// what no longer exists — precisely the staleness model the paper's probing
// tier is built around.
//
// A TTL of zero (the default) disables the cache entirely: every discover
// routes through the overlay and accounting stays byte-identical to a build
// without this layer.
#pragma once

#include <unordered_map>
#include <vector>

#include "qsa/obs/registry.hpp"
#include "qsa/registry/service.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::cache {

class DiscoveryCache {
 public:
  /// Sets the entry lifetime; zero disables (and drops any cached state).
  void set_ttl(sim::SimTime ttl);

  [[nodiscard]] bool enabled() const noexcept {
    return ttl_ > sim::SimTime::zero();
  }
  [[nodiscard]] sim::SimTime ttl() const noexcept { return ttl_; }

  /// The cached instance list for `service`, or null on a miss (absent,
  /// expired, or cache disabled). Counts a hit or a miss when enabled.
  [[nodiscard]] const std::vector<registry::InstanceId>* find(
      registry::ServiceId service, sim::SimTime now);

  /// Remembers one lookup result until `now + ttl`. No-op when disabled.
  void store(registry::ServiceId service,
             const std::vector<registry::InstanceId>& instances,
             sim::SimTime now);

  /// Drops every entry (republish or peer departure — changes that can
  /// touch any service). Counts an invalidation only when live state was
  /// actually dropped.
  void invalidate();

  /// Drops only `service`'s entry (a single publish changed one candidate
  /// list; the rest of the cache stays warm). Same counting rule
  /// as invalidate().
  void invalidate(registry::ServiceId service);

  /// Resolves the `cache.discovery.{hits,misses,invalidations}` counters
  /// (null detaches).
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  struct Entry {
    std::vector<registry::InstanceId> instances;
    sim::SimTime expires;
  };

  sim::SimTime ttl_;  ///< zero = disabled
  std::unordered_map<registry::ServiceId, Entry> entries_;

  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* invalidations_ = nullptr;
};

}  // namespace qsa::cache
