#include "qsa/overlay/lookup.hpp"

namespace qsa::overlay {

bool LookupService::deliver_hop(net::PeerId a, net::PeerId b,
                                LookupStats& stats,
                                const net::NetworkModel* net) const {
  if (!faults_active()) return true;
  const fault::Resend r = faults_->send(fault::Channel::kLookup, a, b);
  // Each lost message was still paid for as a hop, and the sender sat out a
  // timeout (modeled as the pair latency) before resending.
  const int lost = r.delivery.delivered ? r.sends - 1 : r.sends;
  stats.hops += lost;
  if (net != nullptr) {
    stats.latency +=
        sim::SimTime::millis(lost * net->latency(a, b).as_millis());
  }
  stats.latency += r.backoff + r.delivery.extra_delay;
  return r.delivery.delivered;
}

}  // namespace qsa::overlay
