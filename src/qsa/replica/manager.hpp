// Demand-driven, QoS-aware service replication (the third tier, on top of
// composition and dynamic peer selection; DESIGN.md §10).
//
// QCS concentrates every request for an application onto the single
// cheapest instance chain, so one 40-80-provider pool saturates while
// equivalent capacity idles (DESIGN.md §4). The ReplicaManager widens the
// hot pools on demand: it keeps a per-instance soft-state demand score fed
// by admission outcomes, and when the score trips a hysteresis threshold
// while the existing provider pool looks saturated in the probe snapshots,
// it clones the instance onto one more QoS-capable host — headroom >= the
// instance's resource vector R, probed bandwidth >= b towards the current
// pool, ranked by the same Phi scalarization dynamic selection uses — and
// publishes the replica through the normal overlay publish path (which
// invalidates any cached discovery for that service, like any publish).
// Cold replicas are retired after a cooldown so steady state stays bounded.
//
// Every decision is event-driven off the simulator clock and a dedicated
// hash-derived RNG stream: runs are bit-reproducible, and with the
// subsystem disabled nothing is constructed or scheduled, keeping output
// byte-identical to a build without it.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "qsa/core/select.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/qos/resources.hpp"
#include "qsa/registry/backend.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/registry/placement.hpp"
#include "qsa/replica/config.hpp"
#include "qsa/sim/time.hpp"
#include "qsa/util/rng.hpp"

namespace qsa::replica {

/// Half-life of the demand score's exponential decay.
inline constexpr sim::SimTime kDemandHalfLife = sim::SimTime::minutes(2);

/// One live clone: which instance, where, and the QoS evidence it was
/// admitted on (tests assert the replica passed the same headroom checks as
/// any dynamically selected host).
struct ReplicaRecord {
  registry::InstanceId instance = 0;
  net::PeerId host = net::kNoPeer;
  sim::SimTime created;
  qos::ResourceVector headroom;  ///< probed availability at placement time
  double phi = 0;                ///< Phi score that won the placement
};

struct ReplicaStats {
  std::uint64_t created = 0;
  std::uint64_t retired = 0;           ///< cold, removed by the sweep
  std::uint64_t rejected_no_host = 0;  ///< tripped but no capable host
  std::uint64_t host_departures = 0;   ///< replicas lost to churn
};

class ReplicaManager {
 public:
  ReplicaManager(std::uint64_t seed, const ReplicaConfig& config,
                 const registry::ServiceCatalog& catalog,
                 registry::PlacementMap& placement,
                 registry::DiscoveryBackend& discovery,
                 const net::PeerTable& peers, const net::NetworkModel& net,
                 const qos::TupleWeights& weights,
                 const qos::ResourceSchema& schema);

  /// Attaches observability (optional; null detaches): the replica.active
  /// gauge, whose high-water mark only the registry keeps. The counts live
  /// in stats(); the grid exports them at the end of its run.
  void set_metrics(obs::MetricsRegistry* metrics);

  // --- demand signals (called from the grid's request path) ---

  /// A session using `instances` was admitted.
  void on_admitted(std::span<const registry::InstanceId> instances,
                   sim::SimTime now);

  /// Admission rejected: `blamed` is the host whose reservation fell short;
  /// the instance it was to serve takes the strong signal, the rest of the
  /// path a weak one (the whole request went unserved).
  void on_rejected(std::span<const registry::InstanceId> instances,
                   std::span<const net::PeerId> hosts, net::PeerId blamed,
                   sim::SimTime now);

  /// Dynamic selection found no eligible host for any hop of `instances`.
  void on_selection_failure(std::span<const registry::InstanceId> instances,
                            sim::SimTime now);

  /// A session using `instances` ended (completion or abort); releases the
  /// in-use pins that keep the instances' replicas from retiring.
  void on_session_ended(
      std::span<const registry::InstanceId> instances) noexcept;

  /// Churn removed `peer`: drop its replica records (the placement map has
  /// already forgotten the peer wholesale).
  void peer_departed(net::PeerId peer);

  /// Periodic retirement: removes replicas that are old enough (>= one
  /// cooldown) on instances whose demand decayed below the low watermark
  /// and that no active session still uses.
  void sweep(sim::SimTime now);

  /// Current decayed demand score of an instance.
  [[nodiscard]] double demand(registry::InstanceId instance,
                              sim::SimTime now) const;

  [[nodiscard]] const std::vector<ReplicaRecord>& replicas() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t active() const noexcept { return records_.size(); }
  [[nodiscard]] const ReplicaStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ReplicaConfig& config() const noexcept {
    return config_;
  }

 private:
  struct InstanceState {
    double score = 0;             ///< decayed demand, as of `as_of`
    sim::SimTime as_of;
    sim::SimTime refractory_until;
    std::uint32_t in_use = 0;     ///< active sessions using the instance
    int replica_count = 0;
  };

  /// Adds `weight` to the (decayed) score and re-evaluates the trip.
  void bump(registry::InstanceId instance, double weight, sim::SimTime now);
  void maybe_replicate(registry::InstanceId instance, InstanceState& st,
                       sim::SimTime now);
  /// Fraction of the instance's current providers whose probed availability
  /// cannot fit another copy's R (1.0 on an empty pool).
  [[nodiscard]] double pool_pressure(registry::InstanceId instance,
                                     sim::SimTime now) const;
  /// Samples candidate hosts and returns the Phi-best QoS-capable one (or a
  /// record with host == kNoPeer). Burns a fixed number of RNG draws per
  /// call, so the stream stays aligned whatever the candidates look like.
  [[nodiscard]] ReplicaRecord select_host(registry::InstanceId instance,
                                          sim::SimTime now);
  void retire(std::size_t index);
  void update_active_gauge();

  ReplicaConfig config_;
  const registry::ServiceCatalog& catalog_;
  registry::PlacementMap& placement_;
  registry::DiscoveryBackend& discovery_;
  const net::PeerTable& peers_;
  const net::NetworkModel& net_;
  core::PeerSelector selector_;
  util::Rng rng_;

  std::unordered_map<registry::InstanceId, InstanceState> state_;
  std::vector<ReplicaRecord> records_;
  ReplicaStats stats_;

  obs::Gauge* active_gauge_ = nullptr;
};

}  // namespace qsa::replica
