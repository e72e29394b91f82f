#include "qsa/core/select.hpp"

#include <vector>

#include "qsa/util/expects.hpp"

namespace qsa::core {

PeerSelector::PeerSelector(qos::TupleWeights weights,
                           qos::ResourceSchema schema, SelectorOptions options)
    : weights_(weights), schema_(schema), options_(options) {}

double PeerSelector::phi(const probe::PerfSnapshot& snap,
                         const registry::ServiceInstance& instance) const {
  QSA_EXPECTS(snap.available.size() == schema_.kinds());
  QSA_EXPECTS(instance.resources.size() == schema_.kinds());
  double value = 0;
  for (std::size_t i = 0; i < schema_.kinds(); ++i) {
    QSA_EXPECTS(instance.resources[i] > 0);
    value += weights_.resource()[i] * snap.available[i] / instance.resources[i];
  }
  QSA_EXPECTS(instance.bandwidth_kbps > 0);
  value +=
      weights_.bandwidth() * snap.bandwidth_kbps / instance.bandwidth_kbps;
  return value;
}

net::PeerId PeerSelector::filter_pass(
    const registry::ServiceInstance& instance, sim::SimTime session_duration,
    bool with_uptime) const {
  net::PeerId best = net::kNoPeer;
  double best_phi = 0;
  for (const Known& k : known_) {
    if (!k.snap.alive) continue;
    if (with_uptime && k.snap.uptime < session_duration) continue;
    if (!instance.resources.fits_within(k.snap.available)) continue;
    if (k.snap.bandwidth_kbps < instance.bandwidth_kbps) continue;
    const double value = phi(k.snap, instance);
    if (best == net::kNoPeer || value > best_phi ||
        (value == best_phi && k.peer < best)) {
      best = k.peer;
      best_phi = value;
    }
  }
  return best;
}

HopSelection PeerSelector::select_hop(
    const net::PeerTable& peers, const net::NetworkModel& net,
    const probe::NeighborTable& table, net::PeerId current,
    const registry::ServiceInstance& instance,
    std::span<const net::PeerId> candidates, sim::SimTime session_duration,
    sim::SimTime now, util::Rng& rng) const {
  known_.clear();
  unknown_.clear();
  known_.reserve(candidates.size());

  for (net::PeerId c : candidates) {
    if (table.knows(c, now)) {
      Known k{c, probe::probe(peers, net, current, c, now)};
      if (load_) {
        // Same-epoch reservation correction (replication tier): discount
        // what was committed on the candidate since the probe snapshot, so
        // the filter and ranking see near-live headroom.
        k.snap.available -= load_(c);
        k.snap.available.clamp_negative_zero();
      }
      known_.push_back(std::move(k));
    } else {
      unknown_.push_back(c);
    }
  }

  // First pass matches uptime only when the filter is on; a failed filtered
  // pass is retried relaxed (best effort). With the filter off there is
  // nothing to relax, so exactly one pass runs — the old loop's second,
  // identical pass never executed either (it broke out), but it cost a
  // dead-code guard on every call and read as if it could.
  net::PeerId best =
      filter_pass(instance, session_duration, options_.use_uptime_filter);
  if (best == net::kNoPeer && options_.use_uptime_filter) {
    best = filter_pass(instance, session_duration, /*with_uptime=*/false);
  }
  if (best != net::kNoPeer) return HopSelection{best, false};

  // Random fallback among candidates we lack information about.
  if (!unknown_.empty()) {
    return HopSelection{unknown_[rng.index(unknown_.size())], true};
  }
  return HopSelection{};  // hop failed
}

}  // namespace qsa::core
