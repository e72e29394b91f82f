#include "qsa/probe/snapshot.hpp"

namespace qsa::probe {

PerfSnapshot probe(const net::PeerTable& peers, const net::NetworkModel& net,
                   net::PeerId prober, net::PeerId target, sim::SimTime now) {
  const net::ProbedPeer row = peers.probed(target, now);
  if (!row.alive) return {};
  PerfSnapshot s;
  s.alive = true;
  s.available = row.available;
  s.bandwidth_kbps = net.probed_available_kbps(target, prober, now);
  s.uptime = row.uptime;
  return s;
}

}  // namespace qsa::probe
