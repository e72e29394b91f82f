// Probed performance snapshots: what a peer's periodic probing has most
// recently learned about a neighbor (Section 2.2). All values are as of the
// current probe-epoch boundary — deliberately stale relative to live state,
// which is what distinguishes distributed selection from an oracle.
#pragma once

#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/qos/resources.hpp"
#include "qsa/sim/time.hpp"

namespace qsa::probe {

struct PerfSnapshot {
  bool alive = false;              ///< liveness as of the last probe
  qos::ResourceVector available;   ///< RA: end-system resource availability
  double bandwidth_kbps = 0;       ///< beta: available bandwidth target->prober
  sim::SimTime uptime;             ///< time connected, per the last probe
};

/// Takes the snapshot `prober` holds about `target` at time `now`.
[[nodiscard]] PerfSnapshot probe(const net::PeerTable& peers,
                                 const net::NetworkModel& net,
                                 net::PeerId prober, net::PeerId target,
                                 sim::SimTime now);

}  // namespace qsa::probe
