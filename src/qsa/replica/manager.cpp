#include "qsa/replica/manager.hpp"

#include <algorithm>
#include <cmath>

#include "qsa/util/expects.hpp"

namespace qsa::replica {
namespace {

constexpr double kAdmitWeight = 1.0;
constexpr double kBlamedWeight = 2.0;
constexpr double kPathWeight = 1.0;      ///< non-blamed hops of a rejection
constexpr double kSelectionWeight = 2.0;
/// Share of the demand score kept after a placement decision; the drop plus
/// the refractory period form the hysteresis that keeps one hot burst from
/// cloning an instance onto every sampled host.
constexpr double kPostTripKeep = 0.5;
/// A replica retires once its instance's demand decays below
/// threshold * kRetireFraction (the hysteresis low watermark).
constexpr double kRetireFraction = 0.25;
/// Alive peers one placement decision samples as clone hosts.
constexpr std::size_t kCandidateSample = 64;

}  // namespace

ReplicaManager::ReplicaManager(std::uint64_t seed, const ReplicaConfig& config,
                               const registry::ServiceCatalog& catalog,
                               registry::PlacementMap& placement,
                               registry::DiscoveryBackend& discovery,
                               const net::PeerTable& peers,
                               const net::NetworkModel& net,
                               const qos::TupleWeights& weights,
                               const qos::ResourceSchema& schema)
    : config_(config),
      catalog_(catalog),
      placement_(placement),
      discovery_(discovery),
      peers_(peers),
      net_(net),
      selector_(weights, schema),
      rng_(seed) {
  QSA_EXPECTS(config_.threshold > 0);
  QSA_EXPECTS(config_.max_replicas >= 0);
}

void ReplicaManager::set_metrics(obs::MetricsRegistry* metrics) {
  active_gauge_ =
      metrics != nullptr ? &metrics->gauge("replica.active") : nullptr;
}

void ReplicaManager::update_active_gauge() {
  if (active_gauge_ != nullptr) {
    active_gauge_->set(static_cast<double>(records_.size()));
  }
}

void ReplicaManager::bump(registry::InstanceId instance, double weight,
                          sim::SimTime now) {
  InstanceState& st = state_[instance];
  if (now > st.as_of) {
    const double dt = static_cast<double>((now - st.as_of).as_millis());
    const double hl = static_cast<double>(kDemandHalfLife.as_millis());
    st.score *= std::exp2(-dt / hl);
    st.as_of = now;
  }
  st.score += weight;
  maybe_replicate(instance, st, now);
}

double ReplicaManager::demand(registry::InstanceId instance,
                              sim::SimTime now) const {
  auto it = state_.find(instance);
  if (it == state_.end()) return 0;
  const InstanceState& st = it->second;
  if (now <= st.as_of) return st.score;
  const double dt = static_cast<double>((now - st.as_of).as_millis());
  const double hl = static_cast<double>(kDemandHalfLife.as_millis());
  return st.score * std::exp2(-dt / hl);
}

void ReplicaManager::on_admitted(
    std::span<const registry::InstanceId> instances, sim::SimTime now) {
  for (registry::InstanceId inst : instances) {
    ++state_[inst].in_use;
    bump(inst, kAdmitWeight, now);
  }
}

void ReplicaManager::on_rejected(
    std::span<const registry::InstanceId> instances,
    std::span<const net::PeerId> hosts, net::PeerId blamed, sim::SimTime now) {
  QSA_EXPECTS(instances.size() == hosts.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    bump(instances[i], hosts[i] == blamed ? kBlamedWeight : kPathWeight, now);
  }
}

void ReplicaManager::on_selection_failure(
    std::span<const registry::InstanceId> instances, sim::SimTime now) {
  for (registry::InstanceId inst : instances) {
    bump(inst, kSelectionWeight, now);
  }
}

void ReplicaManager::on_session_ended(
    std::span<const registry::InstanceId> instances) noexcept {
  for (registry::InstanceId inst : instances) {
    auto it = state_.find(inst);
    if (it != state_.end() && it->second.in_use > 0) --it->second.in_use;
  }
}

double ReplicaManager::pool_pressure(registry::InstanceId instance,
                                     sim::SimTime now) const {
  const auto providers = placement_.providers(instance);
  if (providers.empty()) return 1.0;
  const auto& inst = catalog_.instance(instance);
  std::size_t saturated = 0;
  for (net::PeerId p : providers) {
    if (!peers_.alive(p) ||
        !inst.resources.fits_within(peers_.probed_available(p, now))) {
      ++saturated;
    }
  }
  return static_cast<double>(saturated) / static_cast<double>(providers.size());
}

ReplicaRecord ReplicaManager::select_host(registry::InstanceId instance,
                                          sim::SimTime now) {
  const auto& inst = catalog_.instance(instance);
  const auto providers = placement_.providers(instance);
  const auto& alive = peers_.alive_ids();

  // Phi's bandwidth term and the b >= beta gate are measured towards the
  // pool's anchor (its lowest-id provider): a clone must be reachable from
  // where the instance's traffic already flows.
  net::PeerId anchor = net::kNoPeer;
  for (net::PeerId p : providers) anchor = std::min(anchor, p);

  ReplicaRecord best;
  best.instance = instance;
  if (alive.empty()) return best;

  // Fixed number of draws regardless of what they hit: the RNG stream stays
  // aligned across candidate outcomes, which keeps runs with different
  // thresholds comparable draw-for-draw.
  std::vector<core::PeerSelector::Candidate> candidates;
  candidates.reserve(kCandidateSample);
  for (std::size_t d = 0; d < kCandidateSample; ++d) {
    const net::PeerId p = alive[rng_.index(alive.size())];
    if (std::find(providers.begin(), providers.end(), p) != providers.end()) {
      continue;  // already serves this instance
    }
    const net::ProbedPeer probed = peers_.probed(p, now);
    core::PeerSelector::Candidate& c = candidates.emplace_back();
    c.peer = p;
    c.snap.alive = probed.alive;
    c.snap.available = probed.available;
    c.snap.uptime = probed.uptime;
    c.snap.bandwidth_kbps = anchor == net::kNoPeer
                                ? inst.bandwidth_kbps
                                : net_.probed_available_kbps(p, anchor, now);
  }
  // Host capability is dynamic selection's filter: probed headroom fits
  // another copy's R, the path from the pool sustains the instance's
  // bitrate, and the host looks stable enough to outlive a retirement cycle.
  const core::PeerSelector::Ranked ranked =
      selector_.rank(candidates, inst, config_.cooldown);
  if (ranked.best == nullptr) return best;
  best.host = ranked.best->peer;
  best.created = now;
  best.headroom = ranked.best->snap.available;
  best.phi = ranked.phi;
  return best;
}

void ReplicaManager::maybe_replicate(registry::InstanceId instance,
                                     InstanceState& st, sim::SimTime now) {
  if (st.score < config_.threshold) return;
  if (st.replica_count >= config_.max_replicas) return;
  if (st.refractory_until > now) return;
  if (pool_pressure(instance, now) < config_.min_pool_pressure) return;

  // One decision per cooldown per instance, hit or miss.
  st.refractory_until = now + config_.cooldown;

  ReplicaRecord record = select_host(instance, now);
  if (record.host == net::kNoPeer) {
    ++stats_.rejected_no_host;
    return;
  }

  // The clone is one more provider of the template instance: same Qin/Qout
  // spec, same R, same b — it passes exactly the satisfies/resource checks
  // the originals passed at catalog generation.
  placement_.add_provider(instance, record.host);
  // The normal overlay publish path; like any publish it re-registers the
  // soft-state registration (and, on the indexed backend, mints the clone's
  // postings), so requesters see the widened pool at their next lookup.
  discovery_.publish(instance);

  st.score *= kPostTripKeep;
  ++st.replica_count;
  records_.push_back(record);
  ++stats_.created;
  update_active_gauge();
}

void ReplicaManager::retire(std::size_t index) {
  const ReplicaRecord& r = records_[index];
  placement_.remove_provider(r.instance, r.host);
  // Narrowing the pool changes what discovery should hand out; the backend
  // drops cached candidate lists (directory) or the clone's own postings
  // (attribute index).
  discovery_.provider_retired(r.instance, r.host);
  auto it = state_.find(r.instance);
  if (it != state_.end() && it->second.replica_count > 0) {
    --it->second.replica_count;
  }
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(index));
}

void ReplicaManager::sweep(sim::SimTime now) {
  const double low_watermark = config_.threshold * kRetireFraction;
  for (std::size_t i = records_.size(); i-- > 0;) {
    const ReplicaRecord& r = records_[i];
    if (now - r.created < config_.cooldown) continue;
    auto it = state_.find(r.instance);
    if (it != state_.end() && it->second.in_use > 0) continue;
    if (demand(r.instance, now) >= low_watermark) continue;
    retire(i);
    ++stats_.retired;
  }
  update_active_gauge();
}

void ReplicaManager::peer_departed(net::PeerId peer) {
  const std::size_t before = records_.size();
  for (std::size_t i = records_.size(); i-- > 0;) {
    if (records_[i].host != peer) continue;
    auto it = state_.find(records_[i].instance);
    if (it != state_.end() && it->second.replica_count > 0) {
      --it->second.replica_count;
    }
    records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (records_.size() != before) {
    stats_.host_departures += before - records_.size();
    update_active_gauge();
  }
}

}  // namespace qsa::replica
