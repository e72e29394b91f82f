// The session manager: admission control and session lifetime.
//
// Admission reserves, all-or-nothing with rollback, the end-system resources
// R of every chosen instance on its host and the bandwidth b of every edge
// of the aggregation flow (source host -> ... -> sink host -> requester).
// Under reservation semantics the paper's success criterion — "all service
// instances' resource requirements are always satisfied ... during the
// entire application session" — reduces to: admission succeeded and no
// participating peer (including the requester) departed before the session
// ended.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "qsa/core/aggregate.hpp"
#include "qsa/fault/fault.hpp"
#include "qsa/net/network.hpp"
#include "qsa/net/peer.hpp"
#include "qsa/obs/registry.hpp"
#include "qsa/obs/trace.hpp"
#include "qsa/registry/catalog.hpp"
#include "qsa/session/session.hpp"
#include "qsa/sim/simulator.hpp"
#include "qsa/util/dense_map.hpp"

namespace qsa::session {

namespace detail {

/// Resources reserved on one host during probe epoch `epoch`; stale entries
/// are implicitly zero (the boundary has passed, probes see them).
struct EpochLedger {
  std::int64_t epoch = -1;
  qos::ResourceVector reserved;
};

/// Per-service concentration instruments (lazily bound gauges).
struct ServiceLoad {
  obs::Gauge* max_gauge = nullptr;
  obs::Gauge* mean_gauge = nullptr;
  double sum = 0;
  std::uint64_t observations = 0;
};

}  // namespace detail

struct SessionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;   ///< admission (reservation) failures
  std::uint64_t completed = 0;  ///< ran to their scheduled end
  std::uint64_t aborted = 0;    ///< killed by a provisioning peer departure
  std::uint64_t recovered = 0;  ///< survived a departure via recovery
};

class SessionManager {
 public:
  /// Invoked when an admitted session finishes: cause kNone on completion,
  /// kDeparture on churn abort.
  using OutcomeCallback =
      std::function<void(const Session&, core::FailureCause)>;

  /// Runtime failure recovery (the paper's future-work extension): given a
  /// session that just lost `failed`, proposes a replacement host for the
  /// instance at path position `position`, or kNoPeer to give up. Invoked
  /// once per affected position.
  using RecoveryFn = std::function<net::PeerId(
      const Session&, std::size_t position, net::PeerId failed)>;

  SessionManager(sim::Simulator& simulator, net::PeerTable& peers,
                 net::NetworkModel& net,
                 const registry::ServiceCatalog& catalog);

  void set_outcome_callback(OutcomeCallback cb) { outcome_ = std::move(cb); }

  /// Enables provider-load concentration accounting (DESIGN.md §4): how
  /// many admitted sessions each peer is hosting, its run-wide peak, and —
  /// when metrics are attached — a log-bucketed `provider.load` histogram
  /// plus per-service `provider.load.{max,mean}.s<id>` gauges. Off by
  /// default so untracked runs register no new metric names.
  void set_load_tracking(bool on) { track_load_ = on; }

  /// Attaches observability (`metrics` non-null). Traced sessions
  /// (request trace_id != 0) get a `running` span from admission to
  /// completion/abort, `recovery` spans per repair attempt and a `teardown`
  /// span on normal completion; the registry gains session.* histograms and
  /// the active-session high-water gauge.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics);

  /// Enables mid-session departure recovery. Without it (the paper's
  /// baseline behaviour) any participant departure aborts the session.
  void set_recovery(RecoveryFn fn) { recovery_ = std::move(fn); }

  /// Attaches the fault-injection plan (null = perfect messaging, the
  /// default). Recovery's reservation round-trips may then time out and be
  /// retried with backoff; a round-trip lost on every attempt makes that
  /// repair step fail as if the resources were unavailable.
  void set_faults(const fault::FaultPlan* faults) noexcept {
    faults_ = faults;
  }

  /// Attempts to admit `plan` for `request`. On success the session runs
  /// until now + session_duration (its end event is scheduled) and kNone is
  /// returned; otherwise kAdmission, with every partial reservation rolled
  /// back. On rejection, `blamed` (when given) names the host whose
  /// reservation fell short — for host shortages the host itself, for link
  /// shortages the producer endpoint — so callers can retry selection
  /// excluding it.
  core::FailureCause start_session(const core::ServiceRequest& request,
                                   const core::AggregationPlan& plan,
                                   net::PeerId* blamed = nullptr);

  /// Aborts every active session that `peer` participates in (as host or
  /// requester). Call when churn removes a peer, before or after
  /// PeerTable::remove_peer.
  void peer_departed(net::PeerId peer);

  [[nodiscard]] std::size_t active_sessions() const noexcept {
    return sessions_.size();
  }
  /// The admitted sessions still running, by id, in no particular order.
  [[nodiscard]] const std::unordered_map<SessionId, Session>&
  running_sessions() const noexcept {
    return sessions_;
  }
  /// Id of the most recently admitted session (0 if none yet). Valid right
  /// after a successful start_session.
  [[nodiscard]] SessionId last_session_id() const noexcept {
    return next_id_ - 1;
  }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }

  /// Run-wide peak of concurrent sessions hosted by any single provider
  /// (0 until load tracking is enabled).
  [[nodiscard]] std::uint32_t peak_provider_load() const noexcept {
    return peak_provider_load_;
  }
  /// Run-wide peak of concurrent sessions of any *single service* on any
  /// single host (0 until load tracking is enabled): the concentration
  /// metric replication attacks — QCS funnels a service's whole demand
  /// onto one instance chain, so one pool's hosts run hot while equivalent
  /// capacity idles; clones widen the pool and cap this peak.
  [[nodiscard]] std::uint32_t peak_service_concentration() const noexcept {
    return peak_concentration_;
  }
  /// Mean co-location *share* seen at admission: for every hosted instance
  /// of every admitted session, the fraction of that service's active
  /// sessions running on the chosen host (inclusive). 1.0 means the whole
  /// service is funneled onto single hosts; spreading across an h-host
  /// pool drives it toward 1/h. Unlike the run-wide peak (or a raw depth
  /// mean) this is volume-fair — a higher-throughput run is not penalized
  /// for carrying more concurrent sessions — so it is the concentration
  /// number the replication ablation compares. 0 until load tracking is
  /// enabled.
  [[nodiscard]] double mean_service_concentration() const noexcept {
    return concentration_admissions_ == 0
               ? 0
               : concentration_sum_ /
                     static_cast<double>(concentration_admissions_);
  }
  /// Host resources reserved on `peer` since the current probe-epoch
  /// boundary — commitments a probed snapshot cannot see yet. Zero when
  /// load tracking is off or nothing was reserved this epoch. Feeds the
  /// selector's load signal (core::PeerSelector::set_load_signal).
  [[nodiscard]] qos::ResourceVector epoch_reservations(net::PeerId peer) const;

 private:
  void finish_session(SessionId id, core::FailureCause cause);
  void release_all(Session& s);
  /// Attempts to keep session `id` alive after `failed` departed. Returns
  /// true when the session was repaired (hosts swapped, reservations
  /// migrated); false means the caller must abort it.
  bool try_recover(SessionId id, net::PeerId failed);
  /// The repair itself: replacement proposal + reservation migration.
  bool recover_hosts(Session& s, net::PeerId failed);
  /// Completes one reservation round-trip between `a` and `b` under the
  /// fault plan: a lost message is a timeout, retried with backoff up to the
  /// budget. Returns false when every attempt was lost (the repair step is
  /// then treated as a reservation failure). Trivially true without a plan.
  bool reservation_rtt(net::PeerId a, net::PeerId b);
  void unindex(const Session& s);
  void index(const Session& s);
  /// Load accounting on host `host` gaining/losing a hosted session; emits
  /// the concentration instruments for the instance at that position.
  void track_host_gain(net::PeerId host, registry::InstanceId instance);
  void track_host_loss(net::PeerId host, registry::InstanceId instance);

  sim::Simulator& simulator_;
  net::PeerTable& peers_;
  net::NetworkModel& net_;
  const registry::ServiceCatalog& catalog_;
  OutcomeCallback outcome_;
  RecoveryFn recovery_;
  const fault::FaultPlan* faults_ = nullptr;

  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Histogram* duration_hist_ = nullptr;
  obs::Histogram* time_to_failure_hist_ = nullptr;
  obs::Histogram* recovery_salvaged_hist_ = nullptr;
  obs::Histogram* provider_load_hist_ = nullptr;

  // Concentration accounting (only when track_load_).
  bool track_load_ = false;
  std::uint32_t peak_provider_load_ = 0;
  std::uint32_t peak_concentration_ = 0;
  double concentration_sum_ = 0;
  std::uint64_t concentration_admissions_ = 0;
  // The per-admission ledgers below are touched once per hosted instance on
  // every admit/teardown — flat open-addressing maps (util::DenseMap), not
  // node-based unordered_maps, keep that on the simulator's zero-allocation
  // steady-state path.
  util::DenseMap<net::PeerId, std::uint32_t> hosted_load_;
  // Concurrent sessions per (service, host) pair, key (service << 32) | host.
  util::DenseMap<std::uint64_t, std::uint32_t> service_host_load_;
  // Concurrent sessions per service (the co-location share's denominator).
  util::DenseMap<registry::ServiceId, std::uint32_t> service_active_;
  util::DenseMap<net::PeerId, detail::EpochLedger> epoch_ledger_;
  util::DenseMap<registry::ServiceId, detail::ServiceLoad> service_load_;

  std::unordered_map<SessionId, Session> sessions_;
  std::unordered_map<net::PeerId, std::vector<SessionId>> by_peer_;
  SessionId next_id_ = 1;
  SessionStats stats_;
};

}  // namespace qsa::session
