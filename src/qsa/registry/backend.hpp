// The discovery seam: everything tier 1a (candidate discovery) needs from a
// registration/lookup subsystem, abstracted so the grid can swap backends.
//
// Two implementations exist:
//   * registry::ServiceDirectory — the flat per-service key lookup with a
//     TTL'd requester-side cache (the default; ignores the query's range
//     predicates, exactly the pre-seam behaviour);
//   * index::AttributeIndex — the attribute-indexed range-query backend
//     (DESIGN.md §15), which resolves the query's uptime and sink-level
//     predicates against per-attribute index arcs on the overlay itself.
//
// The seam carries the *whole* request context (requirement, session
// duration, path position), not just the service id: a backend that can
// push predicates into the overlay uses them; one that cannot ignores them
// and leaves the filtering to composition/selection downstream.
#pragma once

#include <cstdint>
#include <vector>

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/qos/vector.hpp"
#include "qsa/registry/service.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::registry {

/// The routing cost of one discovery, without the candidate list (that is
/// written into the caller's buffer by discover_into()).
struct DiscoveryStats {
  int hops = 0;
  sim::SimTime latency;
};

/// One tier-1a candidate lookup: which abstract service, asked by whom, and
/// the request context a predicate-capable backend may push down.
struct DiscoveryQuery {
  ServiceId service = 0;
  net::PeerId from = net::kNoPeer;
  /// The request's end-to-end QoS requirement (non-owning; may be null).
  /// Only the sink instance's Qout is checked against it, so backends apply
  /// it only when `is_sink` is set.
  const qos::QosVector* requirement = nullptr;
  /// Intended session length — a backend may pre-filter providers whose
  /// registered uptime cannot cover it (the selector's uptime heuristic,
  /// pushed into discovery). Zero = no uptime predicate.
  sim::SimTime session_duration;
  /// True when `service` is the last hop of the abstract path (the one
  /// whose output the requirement constrains).
  bool is_sink = false;
};

/// A pluggable discovery backend: soft-state registration maintenance plus
/// the per-request candidate lookup.
class DiscoveryBackend {
 public:
  virtual ~DiscoveryBackend() = default;

  /// Registers one instance (bootstrap, replication clone, healing).
  virtual void publish(InstanceId instance) = 0;
  /// Re-registers every catalog instance (bootstrap and the periodic
  /// republish that heals soft state under churn).
  virtual void publish_all() = 0;
  /// Churn removed `peer` — the one registration change the backend does
  /// not hear about through publish.
  virtual void peer_departed(net::PeerId peer) = 0;
  /// Replica retirement narrowed `instance`'s provider pool by `host`. The
  /// instance itself stays registered (its other providers remain), but
  /// per-provider state keyed on (instance, host) must go.
  virtual void provider_retired(InstanceId instance, net::PeerId host) = 0;

  /// Writes the candidate instances for `query` into `out` (reusing its
  /// buffer) and returns the routing cost paid. An empty `out` with the
  /// cost still charged is a failed discovery (no candidates, or the
  /// lookup itself was lost under fault injection).
  virtual DiscoveryStats discover_into(const DiscoveryQuery& query,
                                       const net::NetworkModel* net,
                                       sim::SimTime now,
                                       std::vector<InstanceId>& out) const = 0;
};

}  // namespace qsa::registry
