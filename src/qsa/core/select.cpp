#include "qsa/core/select.hpp"

#include <vector>

#include "qsa/util/expects.hpp"

namespace qsa::core {

PeerSelector::PeerSelector(qos::TupleWeights weights,
                           qos::ResourceSchema schema, bool use_uptime_filter)
    : weights_(weights),
      schema_(schema),
      use_uptime_filter_(use_uptime_filter) {}

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

PeerSelector::Ranked PeerSelector::rank(
    std::span<const Candidate> candidates,
    const registry::ServiceInstance& instance,
    std::optional<sim::SimTime> min_uptime) const {
  Ranked out;
  for (const Candidate& c : candidates) {
    if (!c.snap.alive) continue;
    if (min_uptime && c.snap.uptime < *min_uptime) continue;
    if (!instance.resources.fits_within(c.snap.available)) continue;
    if (c.snap.bandwidth_kbps < instance.bandwidth_kbps) continue;
    const double value = phi(c.snap, instance);
    if (out.best == nullptr || value > out.phi ||
        (value == out.phi && c.peer < out.best->peer)) {
      out.best = &c;
      out.phi = value;
    }
  }
  return out;
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
      Candidate k{c, probe::probe(peers, net, current, c, now)};
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
  const Candidate* best =
      rank(known_, instance,
           use_uptime_filter_ ? std::optional(session_duration) : std::nullopt)
          .best;
  if (best == nullptr && use_uptime_filter_) {
    best = rank(known_, instance, std::nullopt).best;
  }
  if (best != nullptr) return HopSelection{best->peer, false};

  // Random fallback among candidates we lack information about.
  if (!unknown_.empty()) {
    return HopSelection{unknown_[rng.index(unknown_.size())], true};
  }
  return HopSelection{};  // hop failed
}

}  // namespace qsa::core
