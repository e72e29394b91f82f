// A ServiceDirectory lookup for tests: the directory's one entry point,
// DiscoveryBackend::discover_into, with the candidates and the routing cost
// returned together.
#pragma once

#include <vector>

#include "qsa/registry/directory.hpp"

namespace qsa::test {

struct Discovered {
  std::vector<registry::InstanceId> instances;
  int hops = 0;
  sim::SimTime latency;
};

/// Discovers `service`'s candidates from `from` (a query with no range
/// predicates, which the directory ignores anyway).
inline Discovered discover(const registry::ServiceDirectory& dir,
                           registry::ServiceId service, net::PeerId from,
                           const net::NetworkModel* net = nullptr,
                           sim::SimTime now = sim::SimTime::zero()) {
  registry::DiscoveryQuery query;
  query.service = service;
  query.from = from;
  Discovered d;
  const registry::DiscoveryStats cost =
      dir.discover_into(query, net, now, d.instances);
  d.hops = cost.hops;
  d.latency = cost.latency;
  return d;
}

}  // namespace qsa::test
